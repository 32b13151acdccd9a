package main

import (
	"testing"

	"repro/internal/benchfmt"
)

func bench(pkg, name string, metrics map[string]float64) benchfmt.Benchmark {
	return benchfmt.Benchmark{Pkg: pkg, Name: name, Iterations: 1, Metrics: metrics}
}

func TestDiffGate(t *testing.T) {
	baseline := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/ingest", "BenchmarkIngestLoopback-8",
			map[string]float64{"ns/op": 1e6, "summaries/sec": 100000}),
		bench("repro/internal/puncture", "BenchmarkCorrectionLookup-8",
			map[string]float64{"ns/op": 200}),
		bench("repro/internal/agg", "BenchmarkSketchFold",
			map[string]float64{"ns/op": 100}),
		bench("repro/internal/fleet", "BenchmarkCampaign-8",
			map[string]float64{"ns/op": 5e6}), // unwatched: no gate even if it tanks
	}}
	current := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/ingest", "BenchmarkIngestLoopback-2", // different GOMAXPROCS: still keys
			map[string]float64{"ns/op": 1e6, "summaries/sec": 60000}), // −40%: fails
		bench("repro/internal/puncture", "BenchmarkCorrectionLookup-2",
			map[string]float64{"ns/op": 250}), // +25%: within threshold
		bench("repro/internal/agg", "BenchmarkSketchFold",
			map[string]float64{"ns/op": 140}), // +40%: fails
		bench("repro/internal/fleet", "BenchmarkCampaign-2",
			map[string]float64{"ns/op": 50e6}),
	}}
	rows, warnings := diff(baseline, current, 0.30)
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 watched rows, got %d: %+v", len(rows), rows)
	}
	failures := map[string]bool{}
	for _, r := range rows {
		if r.failed {
			failures[r.key+" "+r.metric] = true
		}
	}
	if len(failures) != 2 ||
		!failures["repro/internal/ingest.BenchmarkIngestLoopback summaries/sec"] ||
		!failures["repro/internal/agg.BenchmarkSketchFold ns/op"] {
		t.Fatalf("wrong failure set: %v", failures)
	}
}

func TestDiffGatesAllocsFromZeroBaseline(t *testing.T) {
	baseline := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/ingest", "BenchmarkStoreFold-8",
			map[string]float64{"ns/op": 1500, "allocs/op": 0}),
		bench("repro/internal/cluster", "BenchmarkGossipRound",
			map[string]float64{"ns/op": 1e6, "allocs/op": 40}),
	}}
	current := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/ingest", "BenchmarkStoreFold-2",
			map[string]float64{"ns/op": 1500, "allocs/op": 2}), // 0→2: fails despite the zero baseline
		bench("repro/internal/cluster", "BenchmarkGossipRound",
			map[string]float64{"ns/op": 1e6, "allocs/op": 44}), // +10%: within threshold
	}}
	rows, warnings := diff(baseline, current, 0.30)
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(rows) != 4 { // ns/op + allocs/op for both benchmarks
		t.Fatalf("want 4 watched rows, got %d: %+v", len(rows), rows)
	}
	failures := map[string]bool{}
	for _, r := range rows {
		if r.failed {
			failures[r.key+" "+r.metric] = true
		}
	}
	if len(failures) != 1 || !failures["repro/internal/ingest.BenchmarkStoreFold allocs/op"] {
		t.Fatalf("wrong failure set: %v", failures)
	}
}

func TestDiffWarnsOnVanishedBenchmark(t *testing.T) {
	baseline := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/ingest", "BenchmarkDecodeBinaryBatch",
			map[string]float64{"summaries/sec": 2e6}),
	}}
	rows, warnings := diff(baseline, &benchfmt.Output{}, 0.30)
	if len(rows) != 0 {
		t.Fatalf("no comparable rows expected, got %+v", rows)
	}
	if len(warnings) != 1 {
		t.Fatalf("want 1 vanished-benchmark warning, got %v", warnings)
	}
}

// TestDiffGatesSessionAllocs: the producer's session benchmarks gate on
// allocs/op alone (their ns/op is unwatched), sub-benchmarks key under
// their parent's name, and a per-probe capture merge coming back (41k
// allocs against a 29k baseline) fails while a few extra allocations
// pass.
func TestDiffGatesSessionAllocs(t *testing.T) {
	baseline := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/fleet", "BenchmarkSession-8",
			map[string]float64{"ns/op": 6e6, "allocs/op": 29000}),
		bench("repro", "BenchmarkSessionRun/acutemon-8",
			map[string]float64{"ns/op": 4e6, "allocs/op": 28800}),
		bench("repro", "BenchmarkSessionRun/ping-8",
			map[string]float64{"ns/op": 2e6, "allocs/op": 15300}),
	}}
	current := &benchfmt.Output{Benchmarks: []benchfmt.Benchmark{
		bench("repro/internal/fleet", "BenchmarkSession-2",
			map[string]float64{"ns/op": 22e6, "allocs/op": 41000}), // +41%: fails
		bench("repro", "BenchmarkSessionRun/acutemon-2",
			map[string]float64{"ns/op": 9e6, "allocs/op": 28900}), // ns/op unwatched
		bench("repro", "BenchmarkSessionRun/ping-2",
			map[string]float64{"ns/op": 2e6, "allocs/op": 15300}),
	}}
	rows, warnings := diff(baseline, current, 0.30)
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 allocs/op rows, got %d: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.metric != "allocs/op" {
			t.Fatalf("unexpected watched metric %s on %s", r.metric, r.key)
		}
		if want := r.key == "repro/internal/fleet.BenchmarkSession"; r.failed != want {
			t.Fatalf("%s: failed=%v, want %v", r.key, r.failed, want)
		}
	}
}
