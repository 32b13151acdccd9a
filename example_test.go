package acutemon_test

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
)

// The canonical workflow: build a testbed, let the phone idle, measure
// with AcuteMon through Run, inspect the overheads.
func Example() {
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Seed = 1234
	cfg.EmulatedRTT = 50 * time.Millisecond
	tb := acutemon.NewTestbed(cfg)
	tb.Sim.RunUntil(500 * time.Millisecond) // the idle phone dozes

	sess, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", Testbed: tb, K: 100,
	})
	if err != nil {
		panic(err)
	}
	res := sess.Raw.(*acutemon.Result)
	duk, dkn := acutemon.Overheads(tb, res)
	fmt.Printf("completed: %d/100\n", len(res.Sample()))
	fmt.Printf("median within 3ms of path: %v\n",
		res.Sample().Median()-cfg.EmulatedRTT < 5*time.Millisecond)
	fmt.Printf("overhead under 3ms: %v\n", duk.Median()+dkn.Median() < 3*time.Millisecond)
	// Output:
	// completed: 100/100
	// median within 3ms of path: true
	// overhead under 3ms: true
}

// Contrast AcuteMon against naive 1s-interval ping on a PSM-aggressive
// phone (Nexus 4, Tip = 40ms) over a 60ms path: the naive measurement
// inflates by beacon intervals, AcuteMon does not.
func Example_inflation() {
	prof, _ := acutemon.ProfileByName("Nexus 4")
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Seed = 99
	cfg.Phone = prof
	cfg.EmulatedRTT = 60 * time.Millisecond

	ctx := context.Background()
	ping, err := acutemon.Run(ctx, acutemon.SessionSpec{
		Backend: "sim", Method: "ping", Testbed: acutemon.NewTestbed(cfg), K: 50, Interval: time.Second,
	})
	if err != nil {
		panic(err)
	}

	tbAM := acutemon.NewTestbed(cfg)
	tbAM.Sim.RunUntil(500 * time.Millisecond)
	am, err := acutemon.Run(ctx, acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", Testbed: tbAM, K: 50,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("ping median inflated beyond 100ms: %v\n",
		ping.Sample().Median() > 100*time.Millisecond)
	fmt.Printf("acutemon median within 65ms: %v\n",
		am.Sample().Median() < 65*time.Millisecond)
	// Output:
	// ping median inflated beyond 100ms: true
	// acutemon median within 65ms: true
}

// Calibration infers the phone's demotion timers before measuring, the
// paper's future-work training procedure.
func Example_calibration() {
	prof, _ := acutemon.ProfileByName("Samsung Grand")
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Seed = 5
	cfg.Phone = prof
	tb := acutemon.NewTestbed(cfg)

	cal := acutemon.Calibrate(tb, acutemon.CalibrateOptions{})
	fmt.Printf("Tip within [30ms,60ms]: %v\n",
		cal.Tip >= 30*time.Millisecond && cal.Tip <= 60*time.Millisecond)
	fmt.Printf("db honours db < min(Tis,Tip): %v\n",
		cal.RecommendedInterval < cal.Tip)
	// Output:
	// Tip within [30ms,60ms]: true
	// db honours db < min(Tis,Tip): true
}
