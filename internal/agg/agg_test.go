package agg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sampleFor draws a deterministic lognormal-ish duration sample that
// exercises the whole histogram range plus the out-of-range paths.
func sampleFor(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		ms := math.Exp(rng.NormFloat64()*1.2 + 3.2) // median ~24.5 ms
		if rng.Intn(50) == 0 {
			ms += 600 // force some Over mass
		}
		out[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return out
}

// chunkShuffle splits s into k disjoint chunks after shuffling a copy,
// so chunk contents and fold order both differ from the original.
func chunkShuffle(rng *rand.Rand, s []time.Duration, k int) [][]time.Duration {
	c := make([]time.Duration, len(s))
	copy(c, s)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	chunks := make([][]time.Duration, k)
	for i, v := range c {
		chunks[i%k] = append(chunks[i%k], v)
	}
	return chunks
}

// TestMomentsMergeProperty asserts the subsystem's core invariant:
// Moments built over shuffled disjoint chunks and merged agree with one
// accumulator over the whole sample — count/min/max exactly, mean and
// variance up to float accumulation rounding.
func TestMomentsMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4000)
		k := 1 + rng.Intn(16)
		sample := sampleFor(rng, n)

		var whole Moments
		for _, v := range sample {
			whole.Add(float64(v))
		}

		var merged Moments
		for _, chunk := range chunkShuffle(rng, sample, k) {
			var part Moments
			for _, v := range chunk {
				part.Add(float64(v))
			}
			merged.Merge(part)
		}

		if merged.N != whole.N {
			t.Fatalf("trial %d: N %d != %d", trial, merged.N, whole.N)
		}
		if merged.MinV != whole.MinV || merged.MaxV != whole.MaxV {
			t.Fatalf("trial %d: min/max (%v,%v) != (%v,%v)",
				trial, merged.MinV, merged.MaxV, whole.MinV, whole.MaxV)
		}
		relClose := func(a, b float64) bool {
			if a == b {
				return true
			}
			scale := math.Max(math.Abs(a), math.Abs(b))
			return math.Abs(a-b) <= 1e-9*scale
		}
		if !relClose(merged.Mean, whole.Mean) {
			t.Fatalf("trial %d: mean %v != %v", trial, merged.Mean, whole.Mean)
		}
		if !relClose(merged.Variance(), whole.Variance()) && math.Abs(merged.Variance()-whole.Variance()) > 1e-6*whole.Variance()+1e-9 {
			t.Fatalf("trial %d: variance %v != %v", trial, merged.Variance(), whole.Variance())
		}
	}
}

// TestHistMergeProperty asserts histogram partition-independence:
// chunked-and-merged histograms match the whole-sample histogram
// bucket-for-bucket (hence quantiles exactly, not just within a
// bucket).
func TestHistMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(4000)
		k := 1 + rng.Intn(16)
		sample := sampleFor(rng, n)

		whole := NewDurationHist()
		for _, v := range sample {
			whole.Add(v)
		}

		merged := NewDurationHist()
		for _, chunk := range chunkShuffle(rng, sample, k) {
			part := NewDurationHist()
			for _, v := range chunk {
				part.Add(v)
			}
			merged.Merge(part)
		}

		if merged.N() != whole.N() || merged.N() != int64(n) {
			t.Fatalf("trial %d: N %d/%d != %d", trial, merged.N(), whole.N(), n)
		}
		if merged.Under != whole.Under || merged.Over != whole.Over {
			t.Fatalf("trial %d: out-of-range (%d,%d) != (%d,%d)",
				trial, merged.Under, merged.Over, whole.Under, whole.Over)
		}
		for i := 0; i < whole.Bins(); i++ {
			if merged.Count(i) != whole.Count(i) {
				t.Fatalf("trial %d: bucket %d: %d != %d", trial, i, merged.Count(i), whole.Count(i))
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d: q%.2f %v != %v", trial, q, merged.Quantile(q), whole.Quantile(q))
			}
		}
	}
}

// TestQuantileWithinBucket bounds the histogram quantile estimate
// against the exact order statistic by one bucket width.
func TestQuantileWithinBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sample := make([]time.Duration, 5000)
	for i := range sample {
		sample[i] = time.Duration(rng.Int63n(int64(DurationHistHi)))
	}
	h := NewDurationHist()
	for _, v := range sample {
		h.Add(v)
	}
	sorted := make([]time.Duration, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	w := h.BucketWidth()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		exact := sorted[idx]
		est := h.Quantile(q)
		// Interpolation within the crossing bin can land on either side
		// of the exact order statistic, but never outside its bin.
		if diff := est - exact; diff < -w || diff > w {
			t.Fatalf("q%.2f: estimate %v not within one bucket (%v) of exact %v", q, est, w, exact)
		}
	}
}

func TestMomentsZeroMerge(t *testing.T) {
	var a, b Moments
	b.Add(3)
	b.Add(5)
	a.Merge(b)
	if a.N != 2 || a.Mean != 4 {
		t.Fatalf("merge into zero: N=%d mean=%v", a.N, a.Mean)
	}
	before := a
	a.Merge(Moments{})
	if a != before {
		t.Fatalf("merging zero changed accumulator: %+v != %+v", a, before)
	}
}
