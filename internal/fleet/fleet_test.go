package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/puncture"
)

func smallCampaign(workers int) Campaign {
	sc, _ := ScenarioByName("device-mix")
	return Campaign{
		Name:     "test",
		Scenario: "device-mix",
		Seed:     7,
		Workers:  workers,
		Sessions: sc.Build(Params{Sessions: 24, Seed: 7, Probes: 10}),
	}
}

func TestCampaignRuns(t *testing.T) {
	var seen atomic.Int64
	c := smallCampaign(4)
	c.OnSession = func(r SessionResult) {
		if r.Err != nil {
			t.Errorf("session %d: %v", r.Session.ID, r.Err)
		}
		seen.Add(1)
	}
	rep, err := RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 24 || rep.Errors != 0 {
		t.Fatalf("sessions=%d errors=%d", rep.Sessions, rep.Errors)
	}
	if seen.Load() != 24 {
		t.Fatalf("OnSession saw %d sessions", seen.Load())
	}
	var total int64
	for _, g := range rep.Groups {
		total += g.Sessions
		if g.Du.N == 0 {
			t.Errorf("group %s aggregated no RTTs", g.Label)
		}
		// Every group measures a 30ms path while dozing between probe
		// trains is defeated: the mean must sit near the emulated RTT.
		mean := g.Du.MeanDuration()
		if mean < 25*time.Millisecond || mean > 60*time.Millisecond {
			t.Errorf("group %s mean du = %v, want ≈30-45ms", g.Label, mean)
		}
	}
	if total != 24 {
		t.Fatalf("group sessions sum to %d", total)
	}
	out := rep.Render()
	for _, want := range []string{"campaign", "device-mix", "Group", "Inflation"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCampaignDeterministicAcrossWorkerCounts is the scheduler's core
// guarantee: per-session seeding makes results identical no matter how
// many workers ran them.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	rep1, err := RunContext(context.Background(), smallCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := RunContext(context.Background(), smallCampaign(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Groups) != len(rep4.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(rep1.Groups), len(rep4.Groups))
	}
	for i, g1 := range rep1.Groups {
		g4 := rep4.Groups[i]
		if g1.Label != g4.Label || g1.Sessions != g4.Sessions {
			t.Fatalf("group %d: %s/%d vs %s/%d", i, g1.Label, g1.Sessions, g4.Label, g4.Sessions)
		}
		if g1.Du.N != g4.Du.N || g1.Du.MinV != g4.Du.MinV || g1.Du.MaxV != g4.Du.MaxV {
			t.Errorf("group %s: Du N/min/max diverge across worker counts", g1.Label)
		}
		if !approxEq(g1.Du.Mean, g4.Du.Mean, 1e-9) {
			t.Errorf("group %s: mean %v vs %v", g1.Label, g1.Du.Mean, g4.Du.Mean)
		}
		for b := range g1.DuHist.Counts {
			if g1.DuHist.Counts[b] != g4.DuHist.Counts[b] {
				t.Fatalf("group %s: histogram bin %d diverges", g1.Label, b)
			}
		}
	}
}

// TestCampaignSharedRegistry: the campaign's knowledge store is its
// calibration database — the pre-pass calibrates every missing model
// into it and every acutemon session measures with the stored dpre/db.
func TestCampaignSharedRegistry(t *testing.T) {
	st := puncture.NewStore(4)
	c := smallCampaign(4)
	c.Profiles = st
	c.AutoCalibrate = true
	rep, err := RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %v", rep.FirstErrors)
	}
	cals := st.Calibrations()
	if len(cals) == 0 {
		t.Fatal("auto-calibration recorded nothing")
	}
	if len(rep.CalibratedModels) != len(cals) {
		t.Errorf("CalibratedModels = %v, store has %d calibrations", rep.CalibratedModels, len(cals))
	}
	var calibrated int64
	for _, g := range rep.Groups {
		calibrated += g.CalibratedSessions
	}
	if calibrated != rep.Sessions {
		t.Errorf("%d/%d sessions used calibrated configs", calibrated, rep.Sessions)
	}
	for _, e := range cals {
		if e.Interval <= 0 || e.Tip <= 0 {
			t.Errorf("%s: bad calibration %+v", e.Model, e)
		}
	}

	// Determinism: the pre-pass makes the calibrations themselves
	// reproducible for a different worker count.
	st2 := puncture.NewStore(2)
	c2 := smallCampaign(1)
	c2.Profiles = st2
	c2.AutoCalibrate = true
	if _, err := RunContext(context.Background(), c2); err != nil {
		t.Fatal(err)
	}
	for _, a := range cals {
		b, ok := st2.Calibration(a.Model)
		if !ok || a != b {
			t.Errorf("%s: calibration differs across worker counts: %+v vs %+v", a.Model, a, b)
		}
	}

	// A store that already holds the calibrations skips the pre-pass
	// and yields the same report: calibration reads do not depend on
	// how the store was filled.
	pre := puncture.NewStore(0)
	for _, e := range cals {
		if err := pre.RecordCalibration(e); err != nil {
			t.Fatal(err)
		}
	}
	c3 := smallCampaign(1)
	c3.Profiles = pre
	rep3, err := RunContext(context.Background(), c3)
	if err != nil {
		t.Fatal(err)
	}
	c4 := smallCampaign(1)
	c4.Profiles = puncture.NewStore(0)
	c4.AutoCalibrate = true
	rep4, err := RunContext(context.Background(), c4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.CalibratedModels) != 0 {
		t.Errorf("pre-calibrated store re-calibrated %v", rep3.CalibratedModels)
	}
	g3, _ := json.Marshal(rep3.Groups)
	g4, _ := json.Marshal(rep4.Groups)
	if string(g3) != string(g4) {
		t.Error("pre-loaded and auto-calibrated stores produced different campaign groups")
	}
}

func TestCampaignReportsBadModel(t *testing.T) {
	rep, err := RunContext(context.Background(), Campaign{
		Name: "bad",
		Sessions: []Session{
			{Phone: "Nokia 3310", Probes: 5},
			{Phone: "Google Nexus 5", Probes: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rep.Errors)
	}
	if len(rep.FirstErrors) != 1 || !strings.Contains(rep.FirstErrors[0], "Nokia") {
		t.Fatalf("FirstErrors = %v", rep.FirstErrors)
	}
	if g := rep.Group("Google Nexus 5"); g == nil || g.Du.N == 0 {
		t.Error("healthy session did not aggregate")
	}
	if _, err := RunContext(context.Background(), Campaign{Name: "empty"}); err == nil {
		t.Error("empty campaign accepted")
	}
}

func TestScenarioPresets(t *testing.T) {
	for _, sc := range Scenarios() {
		sessions := sc.Build(Params{Sessions: 20, Seed: 3, Probes: 5})
		if len(sessions) != 20 {
			t.Errorf("%s: %d sessions", sc.Name, len(sessions))
		}
		again := sc.Build(Params{Sessions: 20, Seed: 3, Probes: 5})
		for i := range sessions {
			if sessions[i] != again[i] {
				t.Errorf("%s: session %d not deterministic", sc.Name, i)
			}
		}
	}
	sc, ok := ScenarioByName("psm-sweep")
	if !ok {
		t.Fatal("psm-sweep missing")
	}
	labels := map[string]bool{}
	for _, s := range sc.Build(Params{Sessions: 10, Seed: 1}) {
		labels[s.Label] = true
		if s.PSMTimeout <= 0 {
			t.Error("psm-sweep session without timer override")
		}
	}
	if len(labels) != 5 {
		t.Errorf("psm-sweep produced %d groups, want 5", len(labels))
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Error("unknown scenario resolved")
	}
}

// TestPSMSweepShiftsInflation checks the sweep produces the paper's
// causal story at fleet scale: a short PSM timer (aggressive dozing)
// inflates unprotected phases more than a long one. AcuteMon's BT holds
// the phone awake during measurement, so the effect shows up in the
// settle-phase PSM activity rather than du; here we just confirm the
// campaign runs all arms and reports sane aggregates.
func TestPSMSweepShiftsInflation(t *testing.T) {
	sc, _ := ScenarioByName("psm-sweep")
	rep, err := RunContext(context.Background(), Campaign{
		Name:     "psm",
		Scenario: "psm-sweep",
		Seed:     5,
		Workers:  2,
		Sessions: sc.Build(Params{Sessions: 10, Seed: 5, Probes: 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 5 {
		t.Fatalf("groups = %d", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		if g.Errors > 0 {
			t.Errorf("%s: %d errors", g.Label, g.Errors)
		}
		if g.Inflation.N == 0 || g.Inflation.Mean < 0.8 {
			t.Errorf("%s: inflation %+v", g.Label, g.Inflation)
		}
	}
}

func TestMapOrdersAndCovers(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		got := Map(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: len %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if got := Map[int](4, 0, nil); got != nil {
		t.Error("n=0 should return nil")
	}
}

func TestSeedForDecorrelatesAndIsStable(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 10_000; i++ {
		s := SeedFor(7, i)
		if s <= 0 {
			t.Fatalf("SeedFor(7,%d) = %d, want positive", i, s)
		}
		if seen[s] {
			t.Fatalf("seed collision at %d", i)
		}
		seen[s] = true
	}
	if SeedFor(7, 3) != SeedFor(7, 3) {
		t.Error("SeedFor not stable")
	}
	if SeedFor(7, 3) == SeedFor(8, 3) {
		t.Error("base seed ignored")
	}
}

// TestToolMixCampaign is the acceptance test for mixed-method
// campaigns: every probing scheme runs through the unified Session API
// inside one report, and the paper's ordering survives — the
// comparison tools (dozing between paced probes) inflate while
// acutemon's background traffic holds the measurement near the path
// RTT.
func TestToolMixCampaign(t *testing.T) {
	sc, ok := ScenarioByName("tool-mix")
	if !ok {
		t.Fatal("tool-mix scenario missing")
	}
	rep, err := RunContext(context.Background(), Campaign{
		Name:     "mix",
		Scenario: "tool-mix",
		Seed:     11,
		Workers:  2,
		Sessions: sc.Build(Params{Sessions: 10, Seed: 11, Probes: 8}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"acutemon", "httping", "javaping", "ping", "ping2"}
	if len(rep.Groups) != len(want) {
		t.Fatalf("groups = %d (%v), want %d methods", len(rep.Groups), rep.Groups, len(want))
	}
	for i, g := range rep.Groups {
		if g.Label != want[i] {
			t.Fatalf("group %d = %q, want %q", i, g.Label, want[i])
		}
		if g.Errors > 0 {
			t.Errorf("%s: %d session errors (%v)", g.Label, g.Errors, rep.FirstErrors)
		}
		if g.Du.N == 0 {
			t.Errorf("%s aggregated no RTTs", g.Label)
		}
	}
	am, ping := rep.Group("acutemon"), rep.Group("ping")
	if am.Du.MeanDuration() > 45*time.Millisecond {
		t.Errorf("acutemon mean du = %v, want ≈30ms (no inflation)", am.Du.MeanDuration())
	}
	if ping.Du.MeanDuration() < am.Du.MeanDuration() {
		t.Errorf("ping mean %v < acutemon mean %v; dozing should inflate ping",
			ping.Du.MeanDuration(), am.Du.MeanDuration())
	}
}

// TestWifiVsCellularCampaign checks the cellular backend rides the same
// campaign machinery: three environment groups in one report, no
// session errors, and DCH-pinned cellular RTTs in a sane band.
func TestWifiVsCellularCampaign(t *testing.T) {
	sc, ok := ScenarioByName("wifi-vs-cellular")
	if !ok {
		t.Fatal("wifi-vs-cellular scenario missing")
	}
	rep, err := RunContext(context.Background(), Campaign{
		Name:     "wvc",
		Scenario: "wifi-vs-cellular",
		Seed:     13,
		Workers:  3,
		Sessions: sc.Build(Params{Sessions: 9, Seed: 13, Probes: 6}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 3 {
		t.Fatalf("groups = %d, want wifi + cellular-umts + cellular-lte", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		if g.Errors > 0 {
			t.Errorf("%s: %d session errors (%v)", g.Label, g.Errors, rep.FirstErrors)
		}
		if g.Du.N == 0 {
			t.Errorf("%s aggregated no RTTs", g.Label)
		}
	}
	umts := rep.Group("cellular-umts")
	if umts == nil {
		t.Fatal("cellular-umts group missing")
	}
	// AcuteMon's background traffic pins the modem in DCH: per-probe
	// RTT ≈ core RTT + 2×DCH latency (20-35 ms one way on UMTS), far
	// below the seconds-scale IDLE promotion it would otherwise pay.
	if mean := umts.Du.MeanDuration(); mean < 50*time.Millisecond || mean > 200*time.Millisecond {
		t.Errorf("umts mean du = %v, want DCH-pinned ≈70-100ms", mean)
	}
}
