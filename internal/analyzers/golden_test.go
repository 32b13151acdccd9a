package analyzers

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenCases pairs each fixture package under testdata/src with the
// import path it is type-checked as, so scope-gated analyzers see the
// fixtures exactly the way they see the real tree.
var goldenCases = []struct {
	dir        string
	importPath string
}{
	{"am000", "repro/internal/ingest/am000fix"},
	{"am001", "repro/internal/simtime/am001fix"},
	{"am002", "repro/internal/ingest/am002fix"},
	{"am003", "repro/internal/puncture/am003fix"},
	{"am003cluster", "repro/internal/cluster/am003fix"},
	{"am004", "repro/internal/stats/am004fix"},
	{"am005", "repro/internal/session/am005fix"},
	{"am005cluster", "repro/internal/cluster/am005fix"},
	{"am006", "repro/internal/tools/am006fix"},
}

// goldenSuite is the analyzer set a fixture runs under. The fixtures
// for AM000–AM005 declare exported functions to be analyzed, not
// called, so AM006 runs on its own fixture only.
func goldenSuite(dir string) []Analyzer {
	var out []Analyzer
	for _, a := range Suite() {
		if a.Code() != "AM006" || dir == "am006" {
			out = append(out, a)
		}
	}
	return out
}

// Expectation markers in fixtures:
//
//	// want "AM00x: substring"     an active finding on this line
//	/* wantsup "AM00x: substring" */  a suppressed finding on this line
//
// The quoted text is matched as a substring of "CODE: message". Every
// diagnostic must be expected and every expectation must fire.
var (
	wantRE   = regexp.MustCompile(`want(sup)?((?:\s+"[^"]*")+)`)
	quotedRE = regexp.MustCompile(`"([^"]*)"`)
)

type expectation struct {
	substr   string
	suppress bool
	used     bool
}

func parseWants(m *Module) map[string][]*expectation {
	wants := map[string][]*expectation{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, match := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pos := m.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						for _, q := range quotedRE.FindAllStringSubmatch(match[2], -1) {
							wants[key] = append(wants[key], &expectation{
								substr:   q[1],
								suppress: match[1] == "sup",
							})
						}
					}
				}
			}
		}
	}
	return wants
}

func TestGolden(t *testing.T) {
	positives := map[string]int{} // active findings per diagnostic code
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			m, err := LoadDir(filepath.Join("testdata", "src", tc.dir), tc.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := Run(m, goldenSuite(tc.dir))
			wants := parseWants(m)
			for _, d := range diags {
				if !d.Suppressed {
					positives[d.Code]++
				}
				rendered := d.Code + ": " + d.Message
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				matched := false
				for _, w := range wants[key] {
					if !w.used && w.suppress == d.Suppressed && strings.Contains(rendered, w.substr) {
						w.used = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic (suppressed=%v) at %s: %s", d.Suppressed, key, rendered)
				}
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !w.used {
						t.Errorf("missing diagnostic at %s: want %q (suppressed=%v)", key, w.substr, w.suppress)
					}
				}
			}
		})
	}
	// Every analyzer, and the suppression grammar itself, must have at
	// least one active golden positive.
	for _, code := range []string{"AM000", "AM001", "AM002", "AM003", "AM004", "AM005", "AM006"} {
		if positives[code] == 0 {
			t.Errorf("no active golden positive for %s", code)
		}
	}
}

// TestGoldenSuppressionsCarryReasons pins the waiver contract: a
// suppressed diagnostic keeps its code and a non-empty reason.
func TestGoldenSuppressionsCarryReasons(t *testing.T) {
	m, err := LoadDir(filepath.Join("testdata", "src", "am002"), "repro/internal/ingest/am002fix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	suppressed := 0
	for _, d := range Run(m, Suite()) {
		if !d.Suppressed {
			continue
		}
		suppressed++
		if d.Reason == "" {
			t.Errorf("suppressed %s at %s:%d has no reason", d.Code, d.File, d.Line)
		}
	}
	if suppressed == 0 {
		t.Fatal("fixture produced no suppressed diagnostics")
	}
}
