package stats

import (
	"math/rand"
	"testing"
	"time"
)

func benchSample(n int) Sample {
	rng := rand.New(rand.NewSource(3))
	s := make(Sample, n)
	for i := range s {
		s[i] = time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
	}
	return s
}

// BenchmarkSummarize prices the fixed Summarize: one sort, every order
// statistic derived from the same sorted copy.
func BenchmarkSummarize(b *testing.B) {
	s := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sm := s.Summarize(); sm.N == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkSummarizeResortPerStat prices what Summarize used to do —
// each percentile accessor re-sorting its own copy (five sorts plus
// min/max/mean passes) — so the BENCH series records the win.
func BenchmarkSummarizeResortPerStat(b *testing.B) {
	s := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := Summary{
			N: len(s), Mean: s.Mean(), CI95: s.CI95(),
			Min: s.Min(), Median: s.Median(), Max: s.Max(), Stddev: s.Stddev(),
			P25: s.Percentile(25), P75: s.Percentile(75),
			P90: s.Percentile(90), P99: s.Percentile(99),
		}
		if sm.N == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkStreamingSummarize prices the sample-free path: streaming
// fold plus the sketch-backed summary.
func BenchmarkStreamingSummarize(b *testing.B) {
	s := benchSample(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &Streaming{}
		st.AddSample(s)
		if sm := st.Summarize(); sm.N == 0 {
			b.Fatal("empty summary")
		}
	}
}
