package agg

import (
	"math/rand"
	"testing"
	"time"
)

// benchValues draws a deterministic heavy-tailed value stream so every
// sketch benchmark prices the same workload the acceptance criteria
// care about.
func benchValues(n int) []float64 {
	rng := rand.New(rand.NewSource(41))
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

// BenchmarkSketchFold prices one Add on the hot ingest path (amortized
// over the buffered compression passes).
func BenchmarkSketchFold(b *testing.B) {
	b.ReportAllocs()
	vals := benchValues(1 << 16)
	sk := NewSketch(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(vals[i&(1<<16-1)])
	}
}

// BenchmarkSketchMerge prices merging one worker-local sketch into a
// campaign/query accumulator.
func BenchmarkSketchMerge(b *testing.B) {
	b.ReportAllocs()
	vals := benchValues(1 << 15)
	part := NewSketch(0)
	for _, v := range vals {
		part.Add(v)
	}
	part.Flush()
	acc := NewSketch(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Merge(part)
	}
}

// BenchmarkSketchMergeSmall prices the query-time shape: a cell
// sketch holding three buffered observations merged into a compressed
// ~200-centroid group accumulator.
func BenchmarkSketchMergeSmall(b *testing.B) {
	b.ReportAllocs()
	vals := benchValues(1 << 15)
	acc := NewSketch(0)
	acc.AddMulti(vals)
	acc.Flush()
	cell := NewSketch(0)
	cell.AddMulti(vals[:3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Merge(cell)
	}
}

// BenchmarkSketchQuantile prices one p99 read on a compressed sketch —
// the /stats serving path.
func BenchmarkSketchQuantile(b *testing.B) {
	b.ReportAllocs()
	sk := NewSketch(0)
	for _, v := range benchValues(1 << 16) {
		sk.Add(v)
	}
	sk.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sk.Quantile(0.99) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

// BenchmarkHistQuantile prices the interpolated histogram quantile for
// comparison with the sketch path.
func BenchmarkHistQuantile(b *testing.B) {
	b.ReportAllocs()
	h := NewDurationHist()
	for _, v := range benchValues(1 << 16) {
		h.Add(time.Duration(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

// BenchmarkHistMergeSparse prices merging a three-RTT cell's histogram
// into a query accumulator — the shape of every churn cell: three
// occupied bins of 1000, so the merge costs the occupied span, not the
// geometry.
func BenchmarkHistMergeSparse(b *testing.B) {
	b.ReportAllocs()
	src := NewDurationHist()
	for _, ms := range []time.Duration{21, 34, 55} {
		src.Add(ms * time.Millisecond)
	}
	acc := NewDurationHist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Merge(src)
	}
}
