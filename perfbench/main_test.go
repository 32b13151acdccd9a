package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smoke(t *testing.T, workload string) opts {
	return opts{workload: workload, seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()}
}

// TestEveryMetricPrintedWithUnit runs every workload in smoke mode, with
// tracing off and on, and checks the contract line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that the run's
// own checks pass. campaign is not in BENCHMARK.json (NOTES.md says
// why) but prints the same set, so it is run too.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, the benchmark has no such workload", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := smoke(t, name)
			o.trace = trace
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed result
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if !printed.Correct || printed.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d", name, trace, printed.Correct, printed.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json names %d", name, trace, len(printed.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := printed.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s not printed", name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%t: %s printed in %q, BENCHMARK.json says %q", name, trace, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: %s = %v", name, trace, d.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, got.Value)
				}
			}
		}
	}
}

// TestCampaignVerificationBites removes one session from a campaign's
// report: the workload's own check must then report mismatches beyond
// conservation, which the altered report does not touch.
func TestCampaignVerificationBites(t *testing.T) {
	out, err := runE2E(smoke(t, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct() {
		t.Fatalf("clean campaign run failed its checks: %v", out.mismatches)
	}
	c := out.fx.(*campaign)
	rep := *c.report
	rep.Groups = append(rep.Groups[:0:0], rep.Groups...)
	removed := false
	for i := range rep.Groups {
		if rep.Groups[i].Sessions > 0 {
			rep.Groups[i].Sessions--
			removed = true
			break
		}
	}
	if !removed {
		t.Fatal("campaign report has no sessions to remove")
	}
	c.report = &rep
	var verify []string
	for _, m := range c.check(out) {
		if !strings.HasPrefix(m, "conservation:") {
			verify = append(verify, m)
		}
	}
	if len(verify) == 0 {
		t.Fatal("a report with one session removed still verifies")
	}
}

// TestWithheldBatchBreaksConservation counts one batch as acknowledged
// without sending it: the conservation check must fail the run.
func TestWithheldBatchBreaksConservation(t *testing.T) {
	for _, w := range []string{"hot-cells", "churn-json"} {
		o := smoke(t, w)
		o.withhold = true
		out, err := runE2E(o)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range out.mismatches {
			found = found || strings.HasPrefix(m, "conservation:")
		}
		if out.correct() || !found {
			t.Errorf("%s: withheld batch not caught; mismatches %v", w, out.mismatches)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.99, 5}, {0.2, 1}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
