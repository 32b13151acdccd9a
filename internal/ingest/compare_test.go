package ingest

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/stats"
)

// TestVerifyAgainstReportFlagsBreach shows that the verifier can fail:
// a store folded from a seeded campaign verifies against that
// campaign's report, and against a copy of the report with one group
// perturbed it reports a mismatch that names the group.
func TestVerifyAgainstReportFlagsBreach(t *testing.T) {
	sc, ok := fleet.ScenarioByName("device-mix")
	if !ok {
		t.Fatal("device-mix scenario missing")
	}
	st := NewStore(0, 4)
	offline, err := fleet.RunContext(context.Background(), fleet.Campaign{
		Name:     "breach",
		Scenario: "device-mix",
		Seed:     7,
		Workers:  2,
		Sessions: sc.Build(fleet.Params{Sessions: 12, Seed: 7, Probes: 10}),
		OnSample: func(r fleet.SessionResult, sample stats.Sample) {
			if r.Err != nil {
				return
			}
			s := SummaryFromSession(&r, sample, "device-mix", 1)
			if !st.Fold(&s, 0, SourceNone) {
				t.Error("fold dropped")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := VerifyAgainstReport(st, offline); len(m) != 0 {
		t.Fatalf("unperturbed report does not verify: %q", m)
	}
	raw, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}
	for name, perturb := range map[string]func(g *fleet.GroupAggregate){
		"mean drift":        func(g *fleet.GroupAggregate) { g.Du.Mean *= 1 + 1e-6 },
		"extra observation": func(g *fleet.GroupAggregate) { g.DuTrack().AddMulti([]float64{3e7}, []time.Duration{3e7}) },
		"lost probe":        func(g *fleet.GroupAggregate) { g.ProbesLost++ },
	} {
		var rep fleet.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		g := rep.Groups[len(rep.Groups)/2]
		perturb(g)
		mismatches, _ := VerifyAgainstReport(st, &rep)
		if len(mismatches) == 0 {
			t.Errorf("%s: perturbed report verified", name)
		}
		for _, m := range mismatches {
			if !strings.HasPrefix(m, g.Label+": ") {
				t.Errorf("%s: mismatch %q does not name group %q", name, m, g.Label)
			}
		}
	}
}
