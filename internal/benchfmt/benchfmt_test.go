package benchfmt

import (
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: repro/internal/ingest
cpu: AMD EPYC 7B13
BenchmarkIngestLoopback-8   	      12	 111111 ns/op	  89682 summaries/sec
BenchmarkDecodeBatch   	    1544	    734000 ns/op	 136239 summaries/sec
ok  	repro/internal/ingest	2.1s
pkg: repro/internal/puncture
BenchmarkCorrectionLookup-8 	 5000000	     240 ns/op
--- FAIL: TestBroken
FAIL	repro/internal/broken	0.1s
not a benchmark line
pkg: repro/internal/ingest
BenchmarkIngestLoopback-8   	     480	 108000 ns/op	  92592 summaries/sec
`

func TestParse(t *testing.T) {
	out, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if out.Goos != "linux" || out.Goarch != "amd64" || out.CPU != "AMD EPYC 7B13" {
		t.Fatalf("platform headers: %+v", out)
	}
	// The steady re-run of BenchmarkIngestLoopback replaces the sweep
	// row: one row per key.
	if len(out.Benchmarks) != 3 {
		t.Fatalf("want 3 benchmarks, got %d: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	if b := out.Benchmarks[0]; b.Name != "BenchmarkIngestLoopback-8" || b.Iterations != 480 {
		t.Fatalf("first row %+v; want the steady loopback re-run in the sweep row's place", b)
	}
	if len(out.Failures) != 1 || !strings.Contains(out.Failures[0], "repro/internal/broken") {
		t.Fatalf("failures: %v", out.Failures)
	}
	by := out.ByKey()
	lb, ok := by["repro/internal/ingest.BenchmarkIngestLoopback"]
	if !ok {
		t.Fatalf("loopback key missing (GOMAXPROCS suffix not stripped?): %v", by)
	}
	if lb.Metrics["summaries/sec"] != 92592 {
		t.Fatalf("summaries/sec = %v", lb.Metrics["summaries/sec"])
	}
	if cl := by["repro/internal/puncture.BenchmarkCorrectionLookup"]; cl.Metrics["ns/op"] != 240 {
		t.Fatalf("correction lookup ns/op = %v", cl.Metrics["ns/op"])
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFold-8":        "BenchmarkFold",
		"BenchmarkFold":          "BenchmarkFold",
		"BenchmarkFold/sub-2-16": "BenchmarkFold/sub-2",
		"BenchmarkFold/n-ary":    "BenchmarkFold/n-ary",
	}
	for name, want := range cases {
		if got := (Benchmark{Name: name}).BaseName(); got != want {
			t.Errorf("BaseName(%q) = %q, want %q", name, got, want)
		}
	}
}
