package agg

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile returns the ECDF quantile of a sorted sample: the
// smallest value whose rank is at least q·n.
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// assertQuantileWithinBound checks the sketch's documented contract:
// Quantile(q) lies between the exact sample quantiles at ranks q−ε and
// q+ε, with ε = QuantileErrorBound(q).
func assertQuantileWithinBound(t *testing.T, tag string, sk *Sketch, sorted []float64, q float64) {
	t.Helper()
	eps := sk.QuantileErrorBound(q)
	lo := exactQuantile(sorted, q-eps)
	hi := exactQuantile(sorted, q+eps)
	est := sk.Quantile(q)
	slack := 1e-9 * math.Max(math.Abs(lo), math.Abs(hi))
	if est < lo-slack || est > hi+slack {
		t.Errorf("%s: q=%g estimate %g outside exact rank bracket [%g,%g] (ε=%g, n=%d)",
			tag, q, est, lo, hi, eps, len(sorted))
	}
}

// heavyTailSample draws the acceptance workload: 90% of observations in
// a benign 10–100 ms band, 10% spread across 0.5–5 s — the cellular-
// promotion / PSM-sweep shape whose p99 the fixed-range histogram
// clamps to exactly 500 ms.
func heavyTailSample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(10) == 0 {
			out[i] = (500 + 4500*rng.Float64()) * float64(time.Millisecond)
		} else {
			out[i] = (10 + 90*rng.Float64()) * float64(time.Millisecond)
		}
	}
	return out
}

var sketchTestQs = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}

// TestSketchMergeProperty is the tentpole's core law: sketches built
// over shuffled disjoint chunks and merged in arbitrary order answer
// every quantile within the documented error bound of the exact sample
// — same contract as the whole-stream sketch.
func TestSketchMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(20000)
		k := 1 + rng.Intn(16)
		var sample []float64
		if trial%2 == 0 {
			sample = heavyTailSample(rng, n)
		} else {
			sample = make([]float64, n)
			for i := range sample {
				sample[i] = math.Exp(rng.NormFloat64()*1.2+3.2) * float64(time.Millisecond)
			}
		}

		whole := NewSketch(0)
		for _, v := range sample {
			whole.Add(v)
		}

		shuffled := append([]float64(nil), sample...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		parts := make([]*Sketch, k)
		for i := range parts {
			parts[i] = NewSketch(0)
		}
		for i, v := range shuffled {
			parts[i%k].Add(v)
		}
		rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		merged := NewSketch(0)
		for _, p := range parts {
			merged.Merge(p)
		}

		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		if merged.Count != int64(n) || whole.Count != int64(n) {
			t.Fatalf("trial %d: counts %d/%d != %d", trial, merged.Count, whole.Count, n)
		}
		if merged.MinV != sorted[0] || merged.MaxV != sorted[n-1] ||
			whole.MinV != sorted[0] || whole.MaxV != sorted[n-1] {
			t.Fatalf("trial %d: min/max not exact", trial)
		}
		for _, q := range sketchTestQs {
			assertQuantileWithinBound(t, "whole", whole, sorted, q)
			assertQuantileWithinBound(t, "merged", merged, sorted, q)
		}
	}
}

// TestSketchHeavyTailVsHistogram is the before/after of the bugfix: on
// the heavy-tail workload the fixed-range histogram pins p99 at exactly
// its 500 ms cap while the sketch lands within its error bound of the
// exact sample p99, seconds past the cap.
func TestSketchHeavyTailVsHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sample := heavyTailSample(rng, 50000)
	sk := NewSketch(0)
	h := NewDurationHist()
	for _, v := range sample {
		sk.Add(v)
		h.Add(time.Duration(v))
	}
	if h.Over == 0 {
		t.Fatal("workload should overflow the histogram range")
	}
	if got := h.Quantile(0.99); got != DurationHistHi {
		t.Fatalf("histogram p99 %v, want saturation at %v", got, DurationHistHi)
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		assertQuantileWithinBound(t, "heavy-tail", sk, sorted, q)
	}
	// The whole point: the sketch p99 must sit far beyond the clamp.
	if p99 := sk.Quantile(0.99); p99 < 2*float64(DurationHistHi) {
		t.Fatalf("sketch p99 %v ns suspiciously close to histogram cap", p99)
	}
}

// TestSketchSmallAndExtremes covers the degenerate sizes where the
// sketch must be exact, plus the q≤0 / q≥1 anchors.
func TestSketchSmallAndExtremes(t *testing.T) {
	var empty Sketch
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty sketch quantile should be 0")
	}
	sk := NewSketch(0)
	sk.AddDuration(30 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 1} {
		if got := sk.QuantileDuration(q); got != 30*time.Millisecond {
			t.Fatalf("single observation q=%g: %v", q, got)
		}
	}
	sk2 := NewSketch(0)
	for _, ms := range []float64{10, 20, 30, 40, 50} {
		sk2.Add(ms)
	}
	if sk2.Quantile(0) != 10 || sk2.Quantile(1) != 50 {
		t.Fatalf("extremes not exact: %v/%v", sk2.Quantile(0), sk2.Quantile(1))
	}
	mid := sk2.Quantile(0.5)
	if mid < 20 || mid > 40 {
		t.Fatalf("median %v outside [20,40]", mid)
	}
}

// TestSketchDeterministicAndBounded asserts the two structural
// guarantees: identical insertion order yields identical centroids, and
// the centroid count stays within the validation cap.
func TestSketchDeterministicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sample := heavyTailSample(rng, 30000)
	a, b := NewSketch(0), NewSketch(0)
	for _, v := range sample {
		a.Add(v)
		b.Add(v)
	}
	a.Flush()
	b.Flush()
	if len(a.Centroids) != len(b.Centroids) {
		t.Fatalf("same input order, different centroid counts: %d vs %d", len(a.Centroids), len(b.Centroids))
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("centroid %d differs: %+v vs %+v", i, a.Centroids[i], b.Centroids[i])
		}
	}
	if cap := maxCentroids(a.Compression); len(a.Centroids) > cap {
		t.Fatalf("%d centroids exceeds cap %d", len(a.Centroids), cap)
	}
	if err := a.Valid(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchJSONRoundTrip checks the wire form: canonical (flushed) on
// encode, quantile-preserving on decode, and Valid catches poison.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sk := NewSketch(100)
	for i := 0; i < 5000; i++ {
		sk.Add(rng.Float64() * 1e8)
	}
	raw, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Valid(); err != nil {
		t.Fatal(err)
	}
	if back.Count != sk.Count || back.MinV != sk.MinV || back.MaxV != sk.MaxV {
		t.Fatalf("round trip lost totals: %+v", back)
	}
	for _, q := range sketchTestQs {
		if got, want := back.Quantile(q), sk.Quantile(q); got != want {
			t.Fatalf("q=%g: %v != %v after round trip", q, got, want)
		}
	}

	bad := []Sketch{
		{Compression: 5},              // compression under floor
		{Compression: 200, Count: -1}, // negative count
		{Compression: 200, Count: 2, Centroids: []Centroid{{Mean: 1, Weight: 1}}},                       // count mismatch
		{Compression: 200, Count: 2, Centroids: []Centroid{{Mean: 2, Weight: 1}, {Mean: 1, Weight: 1}}}, // unsorted
		{Compression: 200, Count: 1, Centroids: []Centroid{{Mean: math.NaN(), Weight: 1}}},              // NaN mean
		{Compression: 200, Count: 1, MinV: 2, MaxV: 1, Centroids: []Centroid{{Mean: 1.5, Weight: 1}}},   // min>max
		{Compression: 200, Count: 1, MinV: 0, MaxV: 1, Centroids: []Centroid{{Mean: 5, Weight: 1}}},     // mean>max
		{Compression: 200, Count: 1, Centroids: []Centroid{{Mean: 1, Weight: 0}, {Mean: 2, Weight: 1}}}, // zero weight
	}
	for i, b := range bad {
		if err := b.Valid(); err == nil {
			t.Errorf("bad sketch %d passed validation", i)
		}
	}
}

// TestSketchShifted checks the puncture helper: every value moves by
// delta, clamped at the floor, count preserved, source untouched.
func TestSketchShifted(t *testing.T) {
	sk := NewSketch(0)
	for _, ms := range []float64{5, 10, 50, 100} {
		sk.Add(ms)
	}
	shifted := sk.Shifted(-20, 0)
	if shifted.Count != sk.Count {
		t.Fatalf("count changed: %d != %d", shifted.Count, sk.Count)
	}
	if shifted.MinV != 0 || shifted.MaxV != 80 {
		t.Fatalf("shifted min/max %v/%v, want 0/80", shifted.MinV, shifted.MaxV)
	}
	if med := shifted.Quantile(0.5); med < 0 || med > 30 {
		t.Fatalf("shifted median %v", med)
	}
	if sk.MinV != 5 || sk.MaxV != 100 {
		t.Fatal("Shifted mutated its receiver")
	}
}

// TestMomentsAddNAndHistAddN pin the weighted-fold helpers the ingest
// path uses to fold device-posted sketch centroids.
func TestMomentsAddNAndHistAddN(t *testing.T) {
	var a, b Moments
	for i := 0; i < 5; i++ {
		a.Add(40)
	}
	a.Add(10)
	b.AddN(40, 5)
	b.AddN(10, 1)
	if b.N != a.N || b.Mean != a.Mean || b.MinV != a.MinV || b.MaxV != a.MaxV {
		t.Fatalf("AddN diverges from repeated Add: %+v vs %+v", b, a)
	}
	b.AddN(99, 0) // no-op
	if b.N != a.N {
		t.Fatal("AddN with n=0 folded something")
	}

	h := NewDurationHist()
	h.AddN(30*time.Millisecond, 3)
	h.AddN(-time.Millisecond, 2)
	h.AddN(time.Second, 4)
	if h.N() != 9 || h.Under != 2 || h.Over != 4 {
		t.Fatalf("AddN totals: n=%d under=%d over=%d", h.N(), h.Under, h.Over)
	}
}

// TestCheckCoverage pins the coverage rule: a track's sketch and
// histograms must each describe exactly the observations its moments
// folded, and the sketch must be valid; otherwise serving its
// quantiles would pass a subset (or garbage) off as the whole
// distribution. A foreign histogram geometry is refused by the
// decoders (TestHistJSONRejectsBadGeometry,
// TestHistBinaryRefusesForeignGeometry), so no Hist here can have one.
func TestCheckCoverage(t *testing.T) {
	track := func(n int) (*Sketch, *Hist) {
		s, h := NewSketch(0), NewDurationHist()
		for i := 0; i < n; i++ {
			d := time.Duration(i+1) * 40 * time.Millisecond // some past the cap
			s.AddDuration(d)
			h.Add(d)
		}
		return s, h
	}
	sk, h := track(32)
	if err := CheckCoverage(32, sk, h); err != nil {
		t.Fatalf("covering track refused: %v", err)
	}
	if err := CheckCoverage(32, sk); err != nil {
		t.Fatalf("covering sketch-only track refused: %v", err)
	}
	empty, emptyH := track(0)
	if err := CheckCoverage(0, empty, emptyH); err != nil {
		t.Fatalf("empty track refused: %v", err)
	}
	one, _ := track(1)
	nanSk, _ := track(32)
	nanSk.Flush()
	nanSk.Centroids[0].Mean = math.NaN()
	overflow := NewDurationHist()
	overflow.setCount(0, math.MaxInt64)
	overflow.setCount(1, math.MaxInt64)
	overflow.setCount(2, 34) // the int64 sum wraps to 32
	short := NewDurationHist()
	short.AddN(time.Millisecond, 31)
	for name, err := range map[string]error{
		"no sketch":           CheckCoverage(32, nil, h),
		"no sketch, empty":    CheckCoverage(0, nil),
		"subset sketch":       CheckCoverage(32, one, h),
		"invalid sketch":      CheckCoverage(32, nanSk, h),
		"no histogram":        CheckCoverage(32, sk, nil),
		"subset histogram":    CheckCoverage(32, sk, short),
		"wrapping histogram":  CheckCoverage(32, sk, overflow),
		"second hist missing": CheckCoverage(32, sk, h, nil),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMergeAdoptsCoarserCompression pins the error-bound honesty rule:
// merging in a lower-compression sketch coarsens the receiver, so
// QuantileErrorBound reflects the worst resolution in the data.
func TestMergeAdoptsCoarserCompression(t *testing.T) {
	fine := NewSketch(200)
	coarse := NewSketch(20)
	for i := 0; i < 1000; i++ {
		fine.Add(float64(i))
		coarse.Add(float64(i))
	}
	before := fine.QuantileErrorBound(0.5)
	fine.Merge(coarse)
	if fine.Compression != 20 {
		t.Fatalf("merged compression %g, want coarser 20", fine.Compression)
	}
	if after := fine.QuantileErrorBound(0.5); after <= before {
		t.Fatalf("error bound did not widen: %g <= %g", after, before)
	}
	if err := fine.Valid(); err != nil {
		t.Fatal(err)
	}
}

// TestSketchZeroValueUsable pins the normalization guard: a zero-value
// Sketch (or one decoded from JSON with a missing/hostile compression,
// which never passes through NewSketch or Valid) must degrade to the
// default compression instead of collapsing every observation into one
// centroid with an infinite error bound.
func TestSketchZeroValueUsable(t *testing.T) {
	var s Sketch
	for i := 0; i < 2000; i++ {
		s.Add(float64(i))
	}
	s.Flush()
	if s.Compression != DefaultSketchCompression {
		t.Fatalf("compression %g, want default", s.Compression)
	}
	if len(s.Centroids) < 10 {
		t.Fatalf("zero-value sketch collapsed to %d centroids", len(s.Centroids))
	}
	if eps := s.QuantileErrorBound(0.5); math.IsInf(eps, 0) || eps > 0.1 {
		t.Fatalf("error bound %g", eps)
	}
	if med := s.Quantile(0.5); med < 900 || med > 1100 {
		t.Fatalf("median %g far from 1000", med)
	}

	hostile := Sketch{Compression: 1e12}
	hostile.Add(1)
	if hostile.Compression != MaxSketchCompression {
		t.Fatalf("hostile compression not clamped: %g", hostile.Compression)
	}
	zero := Sketch{Count: 5, Centroids: []Centroid{{Mean: 1, Weight: 5}}}
	zero.Merge(NewSketch(0))
	if zero.Compression != DefaultSketchCompression {
		t.Fatalf("merge did not normalize compression: %g", zero.Compression)
	}
}

// TestSketchValidWeightOverflow pins the overflow guard: centroid
// weights that wrap the int64 sum back to a plausible total must not
// pass validation.
func TestSketchValidWeightOverflow(t *testing.T) {
	big := int64(1) << 62
	s := Sketch{
		Compression: 200, Count: 4, MinV: 1, MaxV: 5,
		Centroids: []Centroid{{Mean: 1, Weight: big}, {Mean: 2, Weight: big},
			{Mean: 3, Weight: big}, {Mean: 4, Weight: big}, {Mean: 5, Weight: 4}},
	}
	if err := s.Valid(); err == nil {
		t.Fatal("overflowing weight sum passed validation")
	}
	one := Sketch{Compression: 200, Count: 1, MinV: 1, MaxV: 1,
		Centroids: []Centroid{{Mean: 1, Weight: 2}}}
	if err := one.Valid(); err == nil {
		t.Fatal("weight above count passed validation")
	}
}
