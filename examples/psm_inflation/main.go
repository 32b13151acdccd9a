// psm_inflation demonstrates the paper's §3 root cause: the same ping
// workload at a 10 ms and a 1 s sending interval produces very different
// RTTs on phones whose energy-saving timers expire between probes.
//
// On the Nexus 4 (Tip ≈ 40 ms) over a 60 ms path, slow pings get
// beacon-buffered at the AP (external inflation, ~130 ms); on the
// Nexus 5 (Tip ≈ 205 ms, SDIO Tis = 50 ms) the inflation is internal,
// from the bus wake (~+20 ms).
package main

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
	"repro/internal/stats"
)

func run(phoneName string, rtt, interval time.Duration) {
	prof, ok := acutemon.ProfileByName(phoneName)
	if !ok {
		panic("unknown phone")
	}
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Phone = prof
	cfg.EmulatedRTT = rtt
	tb := acutemon.NewTestbed(cfg)

	sess, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "ping", Testbed: tb, K: 100, Interval: interval,
	})
	if err != nil {
		panic(err)
	}
	du, _, dn := acutemon.ToolLayerSamples(tb, sess.Raw.(*acutemon.ToolResult))
	fmt.Printf("  %-16s interval=%-5v du=%6.2fms  dn=%6.2fms  (inflation: %+.2fms user, %+.2fms network)\n",
		prof.Model, interval,
		stats.Millis(du.Mean()), stats.Millis(dn.Mean()),
		stats.Millis(du.Mean())-stats.Millis(rtt),
		stats.Millis(dn.Mean())-stats.Millis(rtt))
}

func main() {
	fmt.Println("Ping inflation vs sending interval (paper Table 2):")
	fmt.Println("\nEmulated RTT 60 ms:")
	for _, phone := range []string{"Nexus 4", "Nexus 5"} {
		for _, interval := range []time.Duration{10 * time.Millisecond, time.Second} {
			run(phone, 60*time.Millisecond, interval)
		}
	}
	fmt.Println("\nEmulated RTT 30 ms:")
	for _, phone := range []string{"Nexus 4", "Nexus 5"} {
		for _, interval := range []time.Duration{10 * time.Millisecond, time.Second} {
			run(phone, 30*time.Millisecond, interval)
		}
	}
	fmt.Println("\nNote how the Nexus 4's 1 s rows inflate in the *network* (PSM beacon")
	fmt.Println("buffering) while the Nexus 5's inflate *inside the phone* (SDIO wake).")
}
