// calibration exercises the paper's future-work feature: inferring a
// phone's demotion timers (bus-sleep Tis, PSM Tip) from unprivileged
// observations, then choosing dpre/db automatically.
package main

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
	"repro/internal/stats"
)

func main() {
	fmt.Println("Calibrating each phone's demotion timers (paper Table 4 + §4.1):")
	fmt.Printf("%-18s %-14s %-14s %-12s\n", "phone", "Tip measured", "Tip nominal", "chosen db")
	for _, prof := range acutemon.Profiles() {
		cfg := acutemon.DefaultTestbedConfig()
		cfg.Phone = prof
		tb := acutemon.NewTestbed(cfg)
		cal := acutemon.Calibrate(tb, acutemon.CalibrateOptions{})
		fmt.Printf("%-18s ~%-13v %-14v %-12v\n",
			prof.Model, cal.Tip.Round(time.Millisecond), prof.PSMTimeout,
			cal.RecommendedInterval.Round(time.Millisecond))
	}

	fmt.Println("\nClosed loop on the Samsung Grand (Tip = 45 ms), 85 ms path:")
	prof, _ := acutemon.ProfileByName("Samsung Grand")
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Phone = prof
	cfg.EmulatedRTT = 85 * time.Millisecond
	tb := acutemon.NewTestbed(cfg)
	cal := acutemon.Calibrate(tb, acutemon.CalibrateOptions{})
	sess, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", Testbed: tb, K: 100,
		WarmupDelay: cal.RecommendedWarmup, BackgroundInterval: cal.RecommendedInterval,
	})
	if err != nil {
		panic(err)
	}
	res := sess.Raw.(*acutemon.Result)
	duk, dkn := acutemon.Overheads(tb, res)
	fmt.Printf("  calibrated dpre=db=%v; median RTT %.2fms; median overhead %.2fms\n",
		cal.RecommendedInterval,
		stats.Millis(res.Sample().Median()),
		stats.Millis(duk.Median()+dkn.Median()))
}
