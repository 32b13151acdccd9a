package puncture

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// populated builds a store with a realistic learned census.
func populated(models int) *Store {
	st := NewStore(0)
	ms := int64(time.Millisecond)
	chipsets := []string{"BCM4339", "WCN3660", "WCN3680", "BCM4330", "BCM4329"}
	for i := 0; i < models; i++ {
		name := fmt.Sprintf("model-%04d", i)
		chip := chipsets[i%len(chipsets)]
		for s := 0; s < 4; s++ {
			st.RecordAttribution(name, chip, 2*ms+int64(i), 3*ms, 5*ms+int64(s))
		}
	}
	return st
}

// BenchmarkCorrectionLookup is the acceptance benchmark for the hot
// path: one Resolve on a learned model must be a single striped read.
// Target ≥ 5M lookups/sec single-node (≤ 200 ns/op); the explicit
// lookups/sec metric lands in the bench record (the Makefile's
// BENCH_FILE) via make bench-json.
func BenchmarkCorrectionLookup(b *testing.B) {
	b.ReportAllocs()
	st := populated(1024)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("model-%04d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr, src := st.Resolve(names[i&1023], "")
		if src != SourceLearned || corr <= 0 {
			b.Fatalf("resolve: %v/%v", corr, src)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "lookups/sec")
	}
}

// BenchmarkCorrectionLookupParallel is the same read under contention —
// the many-fold-workers ingestd shape.
func BenchmarkCorrectionLookupParallel(b *testing.B) {
	b.ReportAllocs()
	st := populated(1024)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("model-%04d", i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			st.Resolve(names[i&1023], "")
			i++
		}
	})
}

// BenchmarkRecordAttribution measures the learning write path.
func BenchmarkRecordAttribution(b *testing.B) {
	b.ReportAllocs()
	st := populated(256)
	ms := int64(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecordAttribution(fmt.Sprintf("model-%04d", i&255), "BCM4339", 2*ms, 3*ms, 5*ms)
	}
}

// BenchmarkStoreSnapshot measures serializing a 1024-model store —
// what the ingestd periodic persister pays.
func BenchmarkStoreSnapshot(b *testing.B) {
	b.ReportAllocs()
	st := populated(1024)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := st.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
}

// BenchmarkStoreMerge measures absorbing a 256-model fleet delta into
// a 1024-model live store.
func BenchmarkStoreMerge(b *testing.B) {
	b.ReportAllocs()
	st := populated(1024)
	delta := populated(256).Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.MergeSnapshot(delta); err != nil {
			b.Fatal(err)
		}
	}
}
