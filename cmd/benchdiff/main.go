// Command benchdiff is the CI bench-regression gate: it compares a
// fresh benchmark record against the committed baseline (both in the
// cmd/bench2json JSON format) and exits 1 when a watched metric
// regresses by more than the threshold.
//
// Watched metrics:
//
//   - "summaries/sec" on every benchmark reporting it (the ingest
//     loopback and wire-decode benchmarks) — higher is better;
//   - "ns/op" on the correction-lookup, sketch fold/merge, and
//     store-fold benchmarks — lower is better;
//   - "allocs/op" on the fold/decode/gossip/compaction hot paths and
//     the simulated producer's session benchmarks — lower is better,
//     and a zero baseline still gates: the fold path is
//     allocation-free by contract, so a 0→1 move is a regression the
//     ratio test must not skip (the divisor is max(base, 1)).
//
// Benchmarks match across runs by package + name with the trailing
// GOMAXPROCS suffix stripped, so a baseline recorded on an 8-core host
// still keys against a 2-core CI runner. A watched benchmark present
// only in the baseline is a warning, not a failure (renames happen);
// one present only in the current run starts being gated next time the
// baseline is refreshed.
//
// Escape hatches: a missing baseline file exits 0 (first run, or a PR
// that intentionally resets the record), and setting BENCHDIFF_SKIP=1
// (CI wires this to the skip-benchdiff PR label) exits 0 immediately —
// for PRs that knowingly trade throughput for correctness.
//
// The default threshold is deliberately loose (30%): CI runs
// -benchtime=1x, so single-sample ns/op noise is real, and the gate is
// meant to catch order-of-magnitude mistakes (an accidental O(n²), a
// lost fast path), not 5% drift.
//
// Usage:
//
//	benchdiff -baseline BENCH_6.json -current BENCH_new.json [-threshold 0.30]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

// nsOpWatch lists the base benchmark names whose ns/op is gated even
// though they report no summaries/sec: the puncture table lookup on
// the per-summary fold path, the sketch fold/merge the store leans on
// for tail percentiles, the observability layer's broadcast fanout and
// janitor compaction passes, and the cluster gossip round-trip and
// replica-merge costs that bound anti-entropy convergence time.
var nsOpWatch = map[string]bool{
	"BenchmarkCorrectionLookup":         true,
	"BenchmarkCorrectionLookupParallel": true,
	"BenchmarkSketchFold":               true,
	"BenchmarkSketchMerge":              true,
	"BenchmarkStoreFold":                true,
	"BenchmarkStoreFoldSerial":          true,
	"BenchmarkStreamFanout":             true,
	"BenchmarkCompaction":               true,
	"BenchmarkGossipRound":              true,
	"BenchmarkReplicaMerge":             true,
}

// allocsWatch lists the benchmarks whose allocs/op is gated: the
// batched and serial store-fold paths (allocation-free by contract —
// a pooled buffer escaping the pool shows up here before it shows up
// in ns/op), the wire decoders, the sketch fold/merge underneath the
// store, and the gossip/compaction passes whose garbage scales with
// cluster size and retention churn, and the simulated producer's
// session (run alone, and run plus capture analysis): the sim is
// deterministic, so a single iteration counts what steady state does,
// and a per-probe capture merge or a per-tap frame copy coming back
// multiplies the count. Baselines of zero are expected and still
// gate; see the package comment.
var allocsWatch = map[string]bool{
	"BenchmarkStoreFold":         true,
	"BenchmarkStoreFoldSerial":   true,
	"BenchmarkDecodeBatch":       true,
	"BenchmarkDecodeBinaryBatch": true,
	"BenchmarkSketchFold":        true,
	"BenchmarkSketchMerge":       true,
	"BenchmarkCompaction":        true,
	"BenchmarkGossipRound":       true,
	"BenchmarkReplicaMerge":      true,
	"BenchmarkSession":           true,
	"BenchmarkSessionRun":        true,
}

type row struct {
	key, metric          string
	base, cur, delta     float64 // delta > 0 means regression
	higherBetter, failed bool
}

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_*.json to diff against")
	currentPath := flag.String("current", "", "freshly generated BENCH JSON")
	threshold := flag.Float64("threshold", 0.30, "fractional regression that fails the gate")
	flag.Parse()

	if os.Getenv("BENCHDIFF_SKIP") != "" {
		fmt.Println("benchdiff: BENCHDIFF_SKIP set, skipping bench-regression gate")
		return
	}
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	baseline, err := benchfmt.ReadFile(*baselinePath)
	if os.IsNotExist(err) {
		fmt.Printf("benchdiff: no baseline at %s, nothing to gate (first run?)\n", *baselinePath)
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := benchfmt.ReadFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rows, warnings := diff(&baseline, &current, *threshold)
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "benchdiff: warning:", w)
	}
	failed := 0
	for _, r := range rows {
		mark := "ok  "
		if r.failed {
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%s  %-60s %-14s %14.1f → %14.1f  (%+.1f%%)\n",
			mark, r.key, r.metric, r.base, r.cur, signedPct(r))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d watched metric(s) regressed more than %.0f%% vs %s\n",
			failed, *threshold*100, *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d watched metric(s) within %.0f%% of baseline\n", len(rows), *threshold*100)
}

// signedPct renders the change with improvement positive and
// regression negative, regardless of the metric's direction.
func signedPct(r row) float64 {
	if r.delta == 0 {
		return 0 // not -0.0
	}
	return -r.delta * 100
}

// diff compares every watched metric present in both records. A
// watched benchmark missing from the current run is reported as a
// warning so a silent deletion doesn't read as a pass.
func diff(baseline, current *benchfmt.Output, threshold float64) ([]row, []string) {
	curBy := current.ByKey()
	var rows []row
	var warnings []string
	// Dedupe the baseline by key as well: bench-json records watched
	// benchmarks twice (1x sweep + steadier pass), and only the last —
	// steadier — occurrence should gate.
	for _, bb := range baseline.ByKey() {
		watch := watchedMetrics(bb)
		if len(watch) == 0 {
			continue
		}
		cb, ok := curBy[bb.Key()]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("watched benchmark %s missing from current run", bb.Key()))
			continue
		}
		for _, metric := range watch {
			base := bb.Metrics[metric]
			cur, ok := cb.Metrics[metric]
			if !ok {
				warnings = append(warnings, fmt.Sprintf("%s no longer reports %s", bb.Key(), metric))
				continue
			}
			higherBetter := metric == "summaries/sec"
			if base <= 0 && higherBetter {
				continue // can't form a ratio; don't divide by zero
			}
			// Lower-is-better metrics divide by max(base, 1) instead of
			// skipping zero baselines: allocs/op records 0 on the
			// allocation-free fold path, and a 0→N move is exactly the
			// regression the gate exists to catch.
			denom := base
			if denom < 1 {
				denom = 1
			}
			// delta is the fractional move in the "worse" direction.
			delta := (base - cur) / denom
			if !higherBetter {
				delta = (cur - base) / denom
			}
			rows = append(rows, row{
				key: bb.Key(), metric: metric, base: base, cur: cur,
				delta: delta, higherBetter: higherBetter, failed: delta > threshold,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key != rows[j].key {
			return rows[i].key < rows[j].key
		}
		return rows[i].metric < rows[j].metric
	})
	return rows, warnings
}

// watchedMetrics returns which of a benchmark's metrics the gate
// covers: summaries/sec wherever reported, ns/op for the fold-path
// hot spots in nsOpWatch, allocs/op for the allocation-contract
// benchmarks in allocsWatch (present only when the record was taken
// with -benchmem or the benchmark calls b.ReportAllocs).
func watchedMetrics(b benchfmt.Benchmark) []string {
	var out []string
	if _, ok := b.Metrics["summaries/sec"]; ok {
		out = append(out, "summaries/sec")
	}
	base := b.BaseName()
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	if nsOpWatch[base] {
		if _, ok := b.Metrics["ns/op"]; ok {
			out = append(out, "ns/op")
		}
	}
	if allocsWatch[base] {
		if _, ok := b.Metrics["allocs/op"]; ok {
			out = append(out, "allocs/op")
		}
	}
	return out
}
