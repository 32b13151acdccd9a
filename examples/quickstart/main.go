// Quickstart: build the simulated testbed, run one AcuteMon measurement,
// and print the accuracy headline — median delay overhead within 3 ms
// regardless of the path RTT.
package main

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
	"repro/internal/stats"
)

func main() {
	cfg := acutemon.DefaultTestbedConfig()
	cfg.EmulatedRTT = 85 * time.Millisecond
	tb := acutemon.NewTestbed(cfg)

	// Let the idle phone settle — it will doze, like a phone in a pocket.
	tb.Sim.RunUntil(500 * time.Millisecond)

	sess, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", Testbed: tb, K: 100,
	})
	if err != nil {
		panic(err)
	}
	res := sess.Raw.(*acutemon.Result)
	sample := res.Sample()
	fmt.Printf("AcuteMon on %s over an %v path:\n", tb.Phone.Profile.Model, cfg.EmulatedRTT)
	fmt.Printf("  measured RTT: %s\n", sample.Summarize())

	duk, dkn := acutemon.Overheads(tb, res)
	fmt.Printf("  Δdu−k median: %.2f ms\n", stats.Millis(duk.Median()))
	fmt.Printf("  Δdk−n median: %.2f ms\n", stats.Millis(dkn.Median()))
	fmt.Printf("  total median overhead: %.2f ms (paper: within 3 ms)\n",
		stats.Millis(duk.Median()+dkn.Median()))
	fmt.Printf("  background packets: %d, all dropped at the first hop\n", res.BackgroundSent)
}
