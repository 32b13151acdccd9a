package fleet

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/stats"
)

func approxEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

// TestMomentsMergeMatchesSinglePass is the aggregator-correctness
// contract: folding a sample in shards and merging must agree with one
// sequential pass over the same values.
func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := make([]float64, 10_000)
	for i := range values {
		values[i] = 30e6 + rng.NormFloat64()*5e6 // ~30ms ± 5ms in ns
	}

	var single agg.Moments
	for _, v := range values {
		single.Add(v)
	}

	for _, shards := range []int{2, 3, 7, 16} {
		parts := make([]agg.Moments, shards)
		for i, v := range values {
			parts[i%shards].Add(v)
		}
		var merged agg.Moments
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.N != single.N {
			t.Fatalf("shards=%d: N %d vs %d", shards, merged.N, single.N)
		}
		if !approxEq(merged.Mean, single.Mean, 1e-9) {
			t.Errorf("shards=%d: mean %v vs %v", shards, merged.Mean, single.Mean)
		}
		if !approxEq(merged.Variance(), single.Variance(), 1e-6) {
			t.Errorf("shards=%d: variance %v vs %v", shards, merged.Variance(), single.Variance())
		}
		if merged.MinV != single.MinV || merged.MaxV != single.MaxV {
			t.Errorf("shards=%d: min/max %v/%v vs %v/%v", shards, merged.MinV, merged.MaxV, single.MinV, single.MaxV)
		}
	}
}

func TestHistMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	single := newDuHist()
	parts := []*agg.Hist{newDuHist(), newDuHist(), newDuHist()}
	for i := 0; i < 50_000; i++ {
		d := time.Duration(rng.Int63n(int64(600 * time.Millisecond)))
		if i%100 == 0 {
			d = -time.Millisecond // exercise Under
		}
		single.Add(d)
		parts[i%3].Add(d)
	}
	merged := newDuHist()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Under != single.Under || merged.Over != single.Over {
		t.Fatalf("under/over: %d/%d vs %d/%d", merged.Under, merged.Over, single.Under, single.Over)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != single.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, merged.Counts[i], single.Counts[i])
		}
	}
	if merged.N() != single.N() {
		t.Fatalf("N: %d vs %d", merged.N(), single.N())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if merged.Quantile(q) != single.Quantile(q) {
			t.Errorf("q=%.2f: %v vs %v", q, merged.Quantile(q), single.Quantile(q))
		}
	}
	if err := merged.Merge(agg.NewHist(0, time.Second, 10)); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestHistQuantileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := newDuHist()
	var s stats.Sample
	for i := 0; i < 20_000; i++ {
		d := time.Duration(20*time.Millisecond) + time.Duration(rng.Int63n(int64(80*time.Millisecond)))
		h.Add(d)
		s = append(s, d)
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := s.Percentile(q * 100)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		// One histogram bin (0.5ms) of slack.
		if diff > time.Millisecond {
			t.Errorf("q=%.2f: hist %v vs exact %v", q, got, want)
		}
	}
}

// TestGroupAggregateMergeMatchesSinglePass folds synthetic session
// results both sequentially and sharded-then-merged, the exact shape of
// the per-worker aggregation in Run.
func TestGroupAggregateMergeMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type sess struct {
		r SessionResult
		s stats.Sample
	}
	var sessions []sess
	for i := 0; i < 200; i++ {
		var s stats.Sample
		for j := 0; j < 50; j++ {
			s = append(s, time.Duration(30e6+rng.NormFloat64()*4e6))
		}
		sessions = append(sessions, sess{
			r: SessionResult{
				Sent: 50, Lost: rng.Intn(3), BackgroundSent: 40,
				Inflation:    1 + rng.Float64(),
				LayersOK:     true,
				UserOverhead: time.Duration(rng.Int63n(int64(time.Millisecond))),
				SDIOOverhead: time.Duration(rng.Int63n(int64(2 * time.Millisecond))),
				PSMInflation: time.Duration(rng.Int63n(int64(5 * time.Millisecond))),
				PSMActive:    i%3 == 0,
			},
			s: s,
		})
	}

	single := newGroupAggregate("g")
	for i := range sessions {
		single.fold(&sessions[i].r, sessions[i].s)
	}

	const workers = 6
	parts := make([]*GroupAggregate, workers)
	for w := range parts {
		parts[w] = newGroupAggregate("g")
	}
	for i := range sessions {
		parts[i%workers].fold(&sessions[i].r, sessions[i].s)
	}
	merged := newGroupAggregate("g")
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}

	if merged.Sessions != single.Sessions || merged.ProbesSent != single.ProbesSent ||
		merged.ProbesLost != single.ProbesLost || merged.BackgroundSent != single.BackgroundSent ||
		merged.PSMActiveSessions != single.PSMActiveSessions {
		t.Fatalf("counts diverge: %+v vs %+v", merged, single)
	}
	if merged.Du.N != single.Du.N || !approxEq(merged.Du.Mean, single.Du.Mean, 1e-9) ||
		!approxEq(merged.Du.Variance(), single.Du.Variance(), 1e-6) {
		t.Errorf("Du moments diverge: %+v vs %+v", merged.Du, single.Du)
	}
	for i := range merged.DuHist.Counts {
		if merged.DuHist.Counts[i] != single.DuHist.Counts[i] {
			t.Fatalf("hist bin %d: %d vs %d", i, merged.DuHist.Counts[i], single.DuHist.Counts[i])
		}
	}
	for _, pair := range [][2]agg.Moments{
		{merged.Inflation, single.Inflation},
		{merged.UserOverhead, single.UserOverhead},
		{merged.SDIOOverhead, single.SDIOOverhead},
		{merged.PSMInflation, single.PSMInflation},
	} {
		if pair[0].N != pair[1].N || !approxEq(pair[0].Mean, pair[1].Mean, 1e-9) {
			t.Errorf("moments diverge: %+v vs %+v", pair[0], pair[1])
		}
	}
}

// TestGroupAggregateHeavyTailQuantiles is the bugfix's fleet-side
// acceptance check: with 10% of observations in 0.5–5 s (cellular
// promotion / PSM sweep territory) the fixed-range histogram pins p99
// at exactly its 500 ms cap, while the sketch-backed DuQuantile lands
// within the documented rank-error bound of the exact retained sample —
// regardless of how sessions were sharded over workers.
func TestGroupAggregateHeavyTailQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var all stats.Sample
	const workers = 5
	parts := make([]*GroupAggregate, workers)
	for w := range parts {
		parts[w] = newGroupAggregate("g")
	}
	for i := 0; i < 400; i++ {
		s := make(stats.Sample, 100)
		for j := range s {
			if rng.Intn(10) == 0 {
				s[j] = 500*time.Millisecond + time.Duration(rng.Int63n(int64(4500*time.Millisecond)))
			} else {
				s[j] = 10*time.Millisecond + time.Duration(rng.Int63n(int64(90*time.Millisecond)))
			}
		}
		all = append(all, s...)
		r := SessionResult{Sent: len(s)}
		parts[i%workers].fold(&r, s)
	}
	g := newGroupAggregate("g")
	for _, p := range parts {
		if err := g.Merge(p); err != nil {
			t.Fatal(err)
		}
	}

	if g.DuHist.Over == 0 {
		t.Fatal("workload should overflow the histogram range")
	}
	// The pre-sketch failure mode, kept visible: the histogram clamps.
	if got := g.DuHist.Quantile(0.99); got != 500*time.Millisecond {
		t.Fatalf("histogram p99 %v, want clamp at 500ms", got)
	}
	sorted := make(stats.Sample, len(all))
	copy(sorted, all)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		eps := g.DuSketch.QuantileErrorBound(q)
		lo := sorted.Percentile(100 * (q - eps))
		hi := sorted.Percentile(100 * (q + eps))
		got := g.DuQuantile(q)
		if got < lo || got > hi {
			t.Errorf("p%g = %v outside exact rank bracket [%v, %v] (ε=%.2g)", q*100, got, lo, hi, eps)
		}
	}
	if p99 := g.DuQuantile(0.99); p99 < time.Second {
		t.Fatalf("sketch p99 %v still near the histogram cap", p99)
	}
}

// TestReportJSONCarriesSketch locks the report wire format: the
// machine-readable campaign record round-trips the group sketch, so a
// replayed or archived report answers unclamped quantiles too.
func TestReportJSONCarriesSketch(t *testing.T) {
	g := newGroupAggregate("g")
	s := make(stats.Sample, 1000)
	for i := range s {
		s[i] = time.Duration(i+1) * 2 * time.Millisecond // up to 2s, half over the hist cap
	}
	r := SessionResult{Sent: len(s)}
	g.fold(&r, s)
	rep := &Report{Name: "json", Scenario: "custom", Groups: []*GroupAggregate{g}}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"du_sketch"`) {
		t.Fatal("report JSON missing du_sketch")
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	bg := back.Group("g")
	if bg == nil || bg.DuSketch == nil || bg.DuSketch.Count != int64(len(s)) {
		t.Fatalf("decoded group lost its sketch: %+v", bg)
	}
	if got, want := back.Groups[0].DuQuantile(0.99), g.DuQuantile(0.99); got != want {
		t.Fatalf("p99 changed across JSON round trip: %v != %v", got, want)
	}
	// Pre-sketch reports (no du_sketch field) must still render via the
	// histogram fallback.
	old := newGroupAggregate("old")
	old.fold(&r, s)
	old.DuSketch = nil
	if got := old.DuQuantile(0.5); got == 0 {
		t.Fatal("histogram fallback quantile is zero")
	}
	// Merging a sketched group into a pre-sketch one must drop the
	// sketch (it would cover only a subset) and keep the hist fallback.
	if err := old.Merge(g); err != nil {
		t.Fatal(err)
	}
	if old.DuSketch != nil {
		t.Fatal("merge with pre-sketch record kept a subset sketch")
	}
	if got := old.DuQuantile(0.5); got == 0 {
		t.Fatal("histogram fallback lost after partial merge")
	}
}

// TestMergeGeometryMismatchLeavesReceiverUnchanged pins merge
// atomicity: a histogram geometry error must not leave the receiver
// with the other group's sketch/moments already folded in.
func TestMergeGeometryMismatchLeavesReceiverUnchanged(t *testing.T) {
	g := newGroupAggregate("g")
	r := SessionResult{Sent: 3}
	g.fold(&r, stats.Sample{30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond})

	bad := newGroupAggregate("bad")
	bad.fold(&r, stats.Sample{60 * time.Millisecond})
	bad.DuHist = agg.NewHist(0, time.Second, 7) // incompatible geometry

	before := g.Du
	beforeSessions := g.Sessions
	if err := g.Merge(bad); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if g.Du != before || g.Sessions != beforeSessions || g.DuSketch.Count != before.N {
		t.Fatalf("failed merge mutated receiver: %+v", g)
	}
}
