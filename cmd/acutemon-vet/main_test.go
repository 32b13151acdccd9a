package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

const am002Fixture = "../../internal/analyzers/testdata/src/am002:repro/internal/ingest/am002fix"

// TestRunFixtureFindings drives a golden fixture through the CLI: the
// exit code is 1 and each finding renders as file:line:col: CODE: msg.
func TestRunFixtureFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fixture", am002Fixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "AM002: allocation sized by wire-read value n") {
		t.Errorf("missing AM002 diagnostic in output:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("missing finding summary on stderr: %s", stderr.String())
	}
}

// TestRunFixtureJSON pins the -json path end to end: exit 1, and the
// bytes on stdout parse as the documented analyzers.Report schema.
func TestRunFixtureJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-fixture", am002Fixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var rep analyzers.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
	}
	if rep.Version != analyzers.ReportVersion {
		t.Errorf("version = %d, want %d", rep.Version, analyzers.ReportVersion)
	}
	if len(rep.Findings) == 0 {
		t.Error("fixture run reported no findings")
	}
	if len(rep.Suppressed) == 0 {
		t.Error("fixture run reported no suppressed findings")
	}
}

// TestRunAM006CountsUsesModuleWide runs the suite over one package of
// the real module. Its exported API is called only from other packages
// (and Sim.Executed only from the perfbench harness), so AM006 must
// count use sites across the whole module and perfbench, not just the
// requested pattern, and report nothing.
func TestRunAM006CountsUsesModuleWide(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "-json", "./internal/simtime"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	var rep analyzers.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
	}
	for _, d := range rep.Findings {
		if d.Code == "AM006" {
			t.Errorf("AM006 finding for a name used elsewhere: %s", d)
		}
	}
}

// TestRunList checks the analyzer table covers the whole suite.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, code := range []string{"AM001", "AM002", "AM003", "AM004", "AM005", "AM006"} {
		if !strings.Contains(stdout.String(), code) {
			t.Errorf("-list output missing %s:\n%s", code, stdout.String())
		}
	}
}

// TestRunBadFixtureArg pins exit code 2 for a load failure.
func TestRunBadFixtureArg(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fixture", "no-colon"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
