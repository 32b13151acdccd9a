package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
)

// BenchmarkCampaign measures campaign wall-clock at increasing worker
// counts. Sessions are independent CPU-bound simulations, so on a
// multi-core runner throughput scales near-linearly until workers
// exceed cores (the acceptance target: ≥2× at 4 workers vs 1).
// Run with: go test -bench=Campaign -benchtime=1x ./internal/fleet
func BenchmarkCampaign(b *testing.B) {
	sc, _ := ScenarioByName("device-mix")
	sessions := sc.Build(Params{Sessions: 64, Seed: 9, Probes: 25})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := RunContext(context.Background(), Campaign{
					Name:     "bench",
					Scenario: "device-mix",
					Seed:     9,
					Workers:  workers,
					Sessions: sessions,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errors != 0 {
					b.Fatalf("errors: %v", rep.FirstErrors)
				}
			}
		})
	}
}

// BenchmarkSession prices one K=100 measurement session, the campaign's
// unit of work.
func BenchmarkSession(b *testing.B) {
	c := Campaign{Seed: 9}
	for i := 0; i < b.N; i++ {
		s := Session{ID: i, Probes: 100}
		s.fill(c.Seed)
		res, _ := runSession(&c, s)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkAggregatorFold prices the streaming fold path (no
// simulation), which bounds how fast results can drain at high worker
// counts.
func BenchmarkAggregatorFold(b *testing.B) {
	g := newGroupAggregate("bench")
	r := SessionResult{Sent: 100, LayersOK: true, Inflation: 1.1}
	sample := make(stats.Sample, 100)
	for i := range sample {
		sample[i] = 30*time.Millisecond + time.Duration(i)*time.Microsecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.fold(&r, sample)
	}
}
