package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestStreamingMatchesSummarize checks the streaming accumulator
// against the exact sample summary: moments exactly (up to float
// accumulation), percentiles within the sketch's documented rank-error
// bound.
func TestStreamingMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := make(Sample, 20000)
	for i := range s {
		ms := math.Exp(rng.NormFloat64()*1.0 + 3.4)
		s[i] = time.Duration(ms * float64(time.Millisecond))
	}
	st := NewStreaming(0)
	st.AddSample(s)

	exact := s.Summarize()
	got := st.Summarize()
	if got.N != exact.N || got.Min != exact.Min || got.Max != exact.Max {
		t.Fatalf("count/extremes diverge: %+v vs %+v", got, exact)
	}
	relClose := func(a, b time.Duration, tol float64) bool {
		if a == b {
			return true
		}
		return math.Abs(float64(a-b)) <= tol*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	}
	if !relClose(got.Mean, exact.Mean, 1e-9) || !relClose(got.Stddev, exact.Stddev, 1e-6) ||
		!relClose(got.CI95, exact.CI95, 1e-6) {
		t.Fatalf("moment stats diverge: %+v vs %+v", got, exact)
	}
	sorted := s.sorted()
	for _, c := range []struct {
		q   float64
		got time.Duration
	}{{0.25, got.P25}, {0.5, got.Median}, {0.75, got.P75}, {0.9, got.P90}, {0.99, got.P99}} {
		eps := st.QuantileErrorBound(c.q)
		lo := sorted.percentileSorted(100 * (c.q - eps))
		hi := sorted.percentileSorted(100 * (c.q + eps))
		if c.got < lo || c.got > hi {
			t.Errorf("q=%g: %v outside exact rank bracket [%v,%v]", c.q, c.got, lo, hi)
		}
	}
}

// TestStreamingMerge checks that worker-local accumulators merged
// together match one accumulator over the whole stream: moments to
// float rounding, quantiles within the documented bound of the exact
// sample.
func TestStreamingMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := make(Sample, 9001)
	for i := range s {
		s[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	whole := NewStreaming(0)
	whole.AddSample(s)
	parts := []*Streaming{NewStreaming(0), NewStreaming(0), NewStreaming(0)}
	for i, v := range s {
		parts[i%3].Add(v)
	}
	merged := NewStreaming(0)
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(nil) // no-op

	if merged.N() != whole.N() || merged.N() != int64(len(s)) {
		t.Fatalf("N %d/%d != %d", merged.N(), whole.N(), len(s))
	}
	a, b := merged.Summarize(), whole.Summarize()
	if a.Min != b.Min || a.Max != b.Max {
		t.Fatal("extremes diverge after merge")
	}
	if math.Abs(float64(a.Mean-b.Mean)) > 1e-6*float64(b.Mean) {
		t.Fatalf("mean %v vs %v", a.Mean, b.Mean)
	}
	sorted := s.sorted()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		eps := merged.QuantileErrorBound(q)
		lo := sorted.percentileSorted(100 * (q - eps))
		hi := sorted.percentileSorted(100 * (q + eps))
		if v := merged.Quantile(q); v < lo || v > hi {
			t.Errorf("merged q=%g: %v outside [%v,%v]", q, v, lo, hi)
		}
	}
	var empty Streaming
	if (&empty).N() != 0 {
		t.Fatal("zero Streaming not empty")
	}
}
