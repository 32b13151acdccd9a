package acutemon

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus the DESIGN.md ablations. Each iteration
// executes the full experiment on fresh testbeds; key reproduced
// quantities are attached via b.ReportMetric so `go test -bench=. -benchmem`
// doubles as a results report. For the printed artifacts themselves run
// cmd/acutemon-bench.

import (
	"context"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchOpts keeps per-iteration cost manageable while preserving the
// papers' workload shape; cmd/acutemon-bench runs the full 100-probe
// versions.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(i + 1), Probes: 20, Quick: true}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	var inflated float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Table2Run(benchOpts(i))
		for _, c := range cells {
			if c.Phone == "Google Nexus 4" && c.RTT == 60*time.Millisecond && c.Interval == time.Second {
				inflated = stats.Millis(c.Dn.Mean())
			}
		}
	}
	b.ReportMetric(inflated, "ms/N4-60ms-1s-dn")
}

func BenchmarkTable3(b *testing.B) {
	var dvsend float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Table3Run(benchOpts(i))
		for _, c := range cells {
			if c.Kind == "dvsend" && c.BusSleep && c.Interval == time.Second {
				dvsend = stats.Millis(c.Sample.Mean())
			}
		}
	}
	b.ReportMetric(dvsend, "ms/dvsend-1s")
}

func BenchmarkTable4(b *testing.B) {
	var tipN4 float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Table4Run(benchOpts(i))
		for _, c := range cells {
			if c.Phone == "Google Nexus 4" {
				tipN4 = stats.Millis(c.TipMeasured)
			}
		}
	}
	b.ReportMetric(tipN4, "ms/N4-Tip")
}

func BenchmarkTable5(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, c := range experiments.Table5Run(benchOpts(i)) {
			dev := stats.Millis(c.Dn.Mean()) - stats.Millis(c.Emulated)
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst, "ms/worst-dn-deviation")
}

func BenchmarkFig3(b *testing.B) {
	var n5 float64
	for i := 0; i < b.N; i++ {
		for _, bx := range experiments.Fig3Run(benchOpts(i)) {
			if bx.Label == "N5(1s)" && bx.Kind == "dk-n" && bx.RTT == 60*time.Millisecond {
				n5 = stats.Millis(bx.Box.Median)
			}
		}
	}
	b.ReportMetric(n5, "ms/N5-1s-dkn-median")
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig4Run(benchOpts(i)); len(out) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig5Run(benchOpts(i)); len(out) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig6Run(benchOpts(i)); len(out) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, bx := range experiments.Fig7Run(benchOpts(i)) {
			if bx.Kind == "dk-n" {
				if m := stats.Millis(bx.Box.Median); m > worst {
					worst = m
				}
			}
		}
	}
	b.ReportMetric(worst, "ms/worst-dkn-median")
}

func BenchmarkFig8(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig8Run(benchOpts(i))
		med := map[string]float64{}
		for _, s := range series {
			if !s.Cross {
				med[s.Tool] = stats.Millis(s.RTTs.Median())
			}
		}
		gap = med["ping"] - med["AcuteMon"]
	}
	b.ReportMetric(gap, "ms/acutemon-advantage")
}

func BenchmarkFig9(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		series := experiments.Fig9Run(benchOpts(i))
		med := map[string]float64{}
		for _, s := range series {
			med[s.Label] = stats.Millis(s.RTTs.Median())
		}
		diff = med["With BG traffic"] - med["Without BG traffic"]
		if diff < 0 {
			diff = -diff
		}
	}
	b.ReportMetric(diff, "ms/bg-traffic-effect")
}

func BenchmarkAblationPing2(b *testing.B) {
	var longErr float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.AblationPing2(benchOpts(i)) {
			if r.Emulated == 100*time.Millisecond {
				longErr = stats.Millis(r.Ping2Err)
			}
		}
	}
	b.ReportMetric(longErr, "ms/ping2-err-at-100ms")
}

func BenchmarkAblationDB(b *testing.B) {
	var cliff float64
	for i := 0; i < b.N; i++ {
		over := map[time.Duration]float64{}
		for _, r := range experiments.AblationDB(benchOpts(i)) {
			over[r.DB] = stats.Millis(r.MedianOverhead)
		}
		cliff = over[120*time.Millisecond] - over[20*time.Millisecond]
	}
	b.ReportMetric(cliff, "ms/db-cliff")
}

func BenchmarkAblationDpre(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.AblationDpre(benchOpts(i)) {
			if r.Dpre == time.Millisecond {
				penalty = stats.Millis(r.FirstProbeOverhead)
			}
		}
	}
	b.ReportMetric(penalty, "ms/dpre1ms-penalty")
}

func BenchmarkAblationIdletime(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		du := map[int]float64{}
		for _, r := range experiments.AblationIdletime(benchOpts(i)) {
			du[r.Idletime] = stats.Millis(r.MeanDu)
		}
		spread = du[1] - du[30]
	}
	b.ReportMetric(spread, "ms/idletime-spread")
}

func BenchmarkExtensionCellular(b *testing.B) {
	var inflation float64
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtensionCellular(benchOpts(i))
		med := map[string]float64{}
		for _, r := range rows {
			med[r.Label] = stats.Millis(r.RTTs.Median())
		}
		inflation = med["ping @20s"] - med["AcuteMon (db=1s)"]
	}
	b.ReportMetric(inflation, "ms/rrc-inflation-removed")
}

func BenchmarkExtensionEnergy(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtensionEnergy(benchOpts(i))
		var am, fast float64
		for _, r := range rows {
			switch r.Scheme {
			case "acutemon":
				am = float64(r.BeyondGateway)
			case "ping@10ms":
				fast = float64(r.BeyondGateway)
			}
		}
		if am > 0 {
			reduction = fast / am
		}
	}
	b.ReportMetric(reduction, "x/gateway-traffic-reduction")
}

// BenchmarkAcuteMonRun measures the simulator's own throughput for one
// full K=100 AcuteMon run — the engineering-side baseline.
func BenchmarkAcuteMonRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultTestbedConfig()
		cfg.Seed = int64(i + 1)
		res, err := Run(context.Background(), SessionSpec{
			Backend: "sim", Method: "acutemon", Testbed: NewTestbed(cfg), K: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sample()) < 90 {
			b.Fatalf("completed %d/100", len(res.Sample()))
		}
	}
}

// BenchmarkSessionRun measures the unified pipeline end to end on the
// sim backend — testbed build, settle, method run, observation stream,
// layer extraction — for the two methods fleet campaigns lean on
// hardest. The per-method ms/session metric is the session-throughput
// number the perf trajectory tracks.
func BenchmarkSessionRun(b *testing.B) {
	for _, method := range []string{"acutemon", "ping"} {
		method := method
		b.Run(method, func(b *testing.B) {
			var streamed int
			for i := 0; i < b.N; i++ {
				streamed = 0
				res, err := Run(context.Background(), SessionSpec{
					Backend:  "sim",
					Method:   method,
					K:        100,
					Interval: 100 * time.Millisecond,
					Seed:     int64(i + 1),
					Sink:     SessionSinkFunc(func(SessionObservation) { streamed++ }),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Sent != 100 || streamed != len(res.Records) {
					b.Fatalf("sent=%d streamed=%d records=%d", res.Sent, streamed, len(res.Records))
				}
			}
			b.ReportMetric(float64(streamed), "probes/session")
		})
	}
}
