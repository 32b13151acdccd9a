// crosstraffic reproduces the paper's §4.3 comparison in miniature: four
// measurement tools on the same 30 ms path, with and without 25 Mbps of
// iPerf UDP cross traffic saturating the 802.11g cell.
package main

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
	"repro/internal/stats"
)

func main() {
	fmt.Println("Measured RTT medians on a 30 ms path (paper Fig 8):")
	for _, cross := range []bool{false, true} {
		label := "no cross traffic"
		if cross {
			label = "with 10×2.5 Mbps iPerf cross traffic"
		}
		fmt.Printf("\n%s:\n", label)
		for _, tool := range []struct{ label, method string }{
			{"AcuteMon", "acutemon"}, {"httping", "httping"}, {"ping", "ping"}, {"Java ping", "javaping"},
		} {
			cfg := acutemon.DefaultTestbedConfig()
			cfg.Seed = 42
			tb := acutemon.NewTestbed(cfg)
			if cross {
				tb.StartCrossTraffic()
			}
			tb.Sim.RunUntil(300 * time.Millisecond)

			res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
				Backend: "sim", Method: tool.method, Testbed: tb, K: 100, Interval: time.Second,
			})
			if err != nil {
				panic(err)
			}
			s := res.Sample()
			fmt.Printf("  %-10s median=%6.2fms  p90=%6.2fms  (n=%d)\n",
				tool.label, stats.Millis(s.Median()), stats.Millis(s.Percentile(90)), len(s))
		}
		if cross {
			fmt.Println("  (all curves shift right, but AcuteMon stays lowest — Fig 8b)")
		}
	}
}
