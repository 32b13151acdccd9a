package stats

import (
	"math"
	"time"

	"repro/internal/agg"
)

// Streaming accumulates the same headline statistics Sample.Summarize
// reports — mean ± CI95, min/median/max, stddev, upper percentiles —
// without ever holding the sample: moments stream through a Welford
// accumulator and order statistics through a mergeable quantile sketch.
// It is the Summarize for callers that cannot afford O(n) memory (a
// crowd-scale fold over millions of probes) or that need partial
// summaries built on different workers merged into one.
//
// Mean, CI95, stddev, min, and max match Sample.Summarize exactly (up
// to float accumulation order); percentiles carry the sketch's
// documented rank-error bound instead of being exact. The zero value
// is an empty accumulator with the default sketch compression. Not
// safe for concurrent use — merge worker-local accumulators instead.
type Streaming struct {
	moments agg.Moments
	sketch  *agg.Sketch
}

// ensure makes the zero value usable, like every other accumulator in
// the repo: the default sketch is made on first use.
func (t *Streaming) ensure() {
	if t.sketch == nil {
		t.sketch = agg.NewSketch(0)
	}
}

// Add folds one observation in.
func (t *Streaming) Add(d time.Duration) {
	t.ensure()
	t.moments.Add(float64(d))
	t.sketch.AddDuration(d)
}

// AddSample folds a whole sample in.
func (t *Streaming) AddSample(s Sample) {
	for _, v := range s {
		t.Add(v)
	}
}

// Merge folds another accumulator in without mutating it.
func (t *Streaming) Merge(o *Streaming) {
	if o == nil {
		return
	}
	t.ensure()
	t.moments.Merge(o.moments)
	t.sketch.Merge(o.sketch)
}

// N returns the observation count.
func (t *Streaming) N() int64 { return t.moments.N }

// Quantile returns the q-th (0..1) quantile estimate.
func (t *Streaming) Quantile(q float64) time.Duration {
	t.ensure()
	return t.sketch.QuantileDuration(q)
}

// QuantileErrorBound exposes the sketch's documented rank-error bound.
func (t *Streaming) QuantileErrorBound(q float64) float64 {
	t.ensure()
	return t.sketch.QuantileErrorBound(q)
}

// Sketch exposes the underlying quantile sketch (shared, not a copy) so
// callers can persist or re-merge it.
func (t *Streaming) Sketch() *agg.Sketch {
	t.ensure()
	return t.sketch
}

// Summarize derives the Sample.Summarize-shaped summary from the
// streamed state.
func (t *Streaming) Summarize() Summary {
	n := t.moments.N
	if n == 0 {
		return Summary{}
	}
	sm := Summary{
		N:      int(n),
		Mean:   time.Duration(t.moments.Mean),
		Min:    time.Duration(t.moments.MinV),
		Max:    time.Duration(t.moments.MaxV),
		Stddev: time.Duration(t.moments.Stddev()),
		Median: t.Quantile(0.50),
		P25:    t.Quantile(0.25),
		P75:    t.Quantile(0.75),
		P90:    t.Quantile(0.90),
		P99:    t.Quantile(0.99),
	}
	if n >= 2 {
		se := math.Sqrt(t.moments.Variance() / float64(n))
		sm.CI95 = time.Duration(tCritical95(int(n)-1) * se)
	}
	return sm
}
