package agg

import (
	"fmt"
	"math"
	"time"
)

// Track is one observation track: moments, a duration histogram and a
// quantile sketch over the same observations (ns), viewed through
// pointers into its owner's fields, so the owner's JSON and binary
// forms are its own. A fleet group has one (du), an ingest cell two
// (raw and punctured).
type Track struct {
	Moments *Moments
	Hist    *Hist
	Sketch  *Sketch
}

// AddMulti folds a run of observations in, as float nanoseconds (fs)
// and as durations (ds) — the same values. Each AddMulti matches its
// serial Add sequence exactly.
func (t Track) AddMulti(fs []float64, ds []time.Duration) {
	t.Moments.AddMulti(fs)
	t.Hist.AddMulti(ds)
	t.Sketch.AddMulti(fs)
}

// AddSketch folds a device-posted sketch in, for a session that could
// not keep or send its raw RTTs. sk merges into the track's sketch as
// given (Sketch.Merge takes another path for flushed input); flat is
// sk flushed (a flushed clone, or sk itself), and the moments and
// histogram fold each of its centroids as Weight copies of its mean.
// The moments then take sk's exact extremes.
func (t Track) AddSketch(sk, flat *Sketch) {
	t.Sketch.Merge(sk)
	for _, c := range flat.Centroids {
		t.Moments.AddN(c.Mean, c.Weight)
		t.Hist.AddN(time.Duration(c.Mean), c.Weight)
	}
	if sk.MinV < t.Moments.MinV {
		t.Moments.MinV = sk.MinV
	}
	if sk.MaxV > t.Moments.MaxV {
		t.Moments.MaxV = sk.MaxV
	}
}

// Merge folds another track in. Every part merges with any other of
// its kind, so a merge cannot fail.
func (t Track) Merge(o Track) {
	t.Moments.Merge(*o.Moments)
	t.Sketch.Merge(o.Sketch)
	t.Hist.Merge(o.Hist)
}

// Check enforces the coverage invariant (CheckCoverage).
func (t Track) Check() error { return CheckCoverage(t.Moments.N, t.Sketch, t.Hist) }

// Agree holds the track against ref, a track over the same
// observations folded in another order, and returns each way they
// disagree plus the relative drift of the mean. The law: both pass
// Check, or nothing else is compared; counts and extremes are exact;
// means agree within 1e-9 relative (fold order changes the rounding);
// histogram Under/Over and buckets are exact, and since every Hist has
// the one geometry, so are the histogram quantiles; sketch
// extremes are exact; and the sketch p50/p90/p99 lie inside ref's rank
// bracket [q−ε, q+ε], ε the two sketches' combined QuantileErrorBound
// (fold order changes the centroids). Reading quantiles flushes both
// sketches.
func (t Track) Agree(ref Track) (diffs []string, meanRel float64) {
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if err := t.Check(); err != nil {
		add("coverage: %v", err)
	}
	if err := ref.Check(); err != nil {
		add("reference coverage: %v", err)
	}
	if diffs != nil {
		return diffs, 0
	}
	m, rm := t.Moments, ref.Moments
	if m.N != rm.N {
		add("sample count %d != reference %d", m.N, rm.N)
	}
	if rm.N > 0 {
		if d := math.Abs(m.Mean - rm.Mean); d > 0 {
			meanRel = d / math.Abs(rm.Mean)
		}
		if meanRel > 1e-9 {
			add("mean %.6f ms != reference %.6f ms (rel %.2g)", m.Mean/1e6, rm.Mean/1e6, meanRel)
		}
		if m.MinV != rm.MinV || m.MaxV != rm.MaxV {
			add("min/max (%v,%v) != reference (%v,%v)", m.MinV, m.MaxV, rm.MinV, rm.MaxV)
		}
	}
	h, rh := t.Hist, ref.Hist
	if h.Under != rh.Under || h.Over != rh.Over {
		add("histogram under/over (%d,%d) != reference (%d,%d)", h.Under, h.Over, rh.Under, rh.Over)
	}
	for b := 0; b < rh.Bins(); b++ {
		if h.Count(b) != rh.Count(b) {
			add("histogram bucket %d: %d != reference %d", b, h.Count(b), rh.Count(b))
			break
		}
	}
	s, rs := t.Sketch, ref.Sketch
	if rm.N > 0 && (s.MinV != rs.MinV || s.MaxV != rs.MaxV) {
		add("sketch min/max (%v,%v) != reference (%v,%v)", s.MinV, s.MaxV, rs.MinV, rs.MaxV)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		eps := rs.QuantileErrorBound(q) + s.QuantileErrorBound(q)
		// Quantile clamps out-of-range ranks to min/max itself.
		lo, hi := rs.Quantile(q-eps), rs.Quantile(q+eps)
		v := s.Quantile(q)
		slack := 1e-9*math.Abs(hi) + 1 // float interpolation slop, ns scale
		if v < lo-slack || v > hi+slack {
			add("sketch p%g %.3f ms outside reference rank bracket [%.3f,%.3f] ms (ε=%.2g)",
				q*100, v/1e6, lo/1e6, hi/1e6, eps)
		}
	}
	return diffs, meanRel
}
