package sdio

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

func newBus(seed int64, mod func(*Config)) (*simtime.Sim, *Bus) {
	sim := simtime.New(seed)
	cfg := Broadcom()
	if mod != nil {
		mod(&cfg)
	}
	return sim, New(sim, cfg, trace.New(0))
}

// events counts the trace records b emitted under name whose attrs
// start with attrs.
func events(b *Bus, name, attrs string) int {
	n := 0
	for _, e := range b.tr.Filter(b.cfg.Name) {
		if e.Name == name && strings.HasPrefix(e.Attrs, attrs) {
			n++
		}
	}
	return n
}

func TestSleepsAfterIdlePeriod(t *testing.T) {
	sim, b := newBus(1, nil)
	if b.Asleep() {
		t.Fatal("bus asleep at start")
	}
	// idletime=5 × 10ms watchdog: must sleep at ~50-60ms of idleness.
	sim.RunUntil(45 * time.Millisecond)
	if b.Asleep() {
		t.Fatal("bus slept before the idle period elapsed")
	}
	sim.RunUntil(70 * time.Millisecond)
	if !b.Asleep() {
		t.Fatal("bus still awake after idle period")
	}
	if n := events(b, "bus_sleep", ""); n != 1 {
		t.Fatalf("sleeps = %d, want 1", n)
	}
}

func TestIdlePeriodValue(t *testing.T) {
	_, b := newBus(1, nil)
	if got := b.IdlePeriod(); got != 50*time.Millisecond {
		t.Fatalf("Tis = %v, want 50ms (the paper's default)", got)
	}
}

func TestActivityResetsIdleCount(t *testing.T) {
	sim, b := newBus(1, nil)
	// Touch every 20 ms (the AcuteMon db): the bus must never sleep.
	tick := simtime.NewTicker(sim, 20*time.Millisecond, 0, b.Touch)
	sim.RunUntil(500 * time.Millisecond)
	tick.Stop()
	if n := events(b, "bus_sleep", ""); n != 0 {
		t.Fatalf("bus slept %d times despite 20ms activity", n)
	}
}

func TestAcquireAwakeIsImmediate(t *testing.T) {
	sim, b := newBus(1, nil)
	called := time.Duration(-1)
	sim.Post(10*time.Millisecond, func() {
		b.Acquire(Tx, func() { called = sim.Now() })
	})
	sim.RunUntil(20 * time.Millisecond)
	if called != 10*time.Millisecond {
		t.Fatalf("awake acquire ran at %v, want 10ms (no latency)", called)
	}
	if events(b, "bus_waking", "dir=tx") != 0 {
		t.Fatal("awake acquire counted as paid wake")
	}
}

func TestAcquireAsleepPaysWakeLatency(t *testing.T) {
	sim, b := newBus(2, nil)
	sim.RunUntil(200 * time.Millisecond) // deeply asleep
	if !b.Asleep() {
		t.Fatal("precondition: bus should sleep")
	}
	start := sim.Now()
	var woke time.Duration
	awakeAtCallback := false
	b.Acquire(Tx, func() {
		woke = sim.Now()
		awakeAtCallback = !b.Asleep()
	})
	sim.RunUntil(300 * time.Millisecond)
	lat := woke - start
	// Broadcom tx wake is calibrated to Table 3: 7.5–12.5 ms.
	if lat < 7500*time.Microsecond || lat > 12500*time.Microsecond {
		t.Fatalf("wake latency = %v, want within [7.5ms,12.5ms]", lat)
	}
	if !awakeAtCallback {
		t.Fatal("bus still asleep when acquire callback ran")
	}
	if !b.Asleep() {
		t.Fatal("bus should have re-slept after 50ms of idleness")
	}
	if paid, wakes := events(b, "bus_waking", "dir=tx"), events(b, "bus_wake", ""); paid != 1 || wakes != 1 {
		t.Fatalf("paid tx wakes = %d, wakes = %d, want 1 and 1", paid, wakes)
	}
}

func TestConcurrentAcquiresCoalesce(t *testing.T) {
	sim, b := newBus(3, nil)
	sim.RunUntil(200 * time.Millisecond)
	var done []time.Duration
	b.Acquire(Tx, func() { done = append(done, sim.Now()) })
	b.Acquire(Rx, func() { done = append(done, sim.Now()) })
	b.Acquire(Tx, func() { done = append(done, sim.Now()) })
	sim.RunUntil(300 * time.Millisecond)
	if len(done) != 3 {
		t.Fatalf("completed %d acquires, want 3", len(done))
	}
	if done[0] != done[1] || done[1] != done[2] {
		t.Fatalf("coalesced acquires completed at different times: %v", done)
	}
	if n := events(b, "bus_wake", ""); n != 1 {
		t.Fatalf("wakes = %d, want 1 (single coalesced wake)", n)
	}
}

func TestSleepDisabled(t *testing.T) {
	sim, b := newBus(4, func(c *Config) { c.SleepEnabled = false })
	sim.RunUntil(2 * time.Second)
	if b.Asleep() || events(b, "bus_sleep", "") != 0 {
		t.Fatal("sleep-disabled bus slept")
	}
	// Acquire is then always immediate (runs synchronously).
	var lat time.Duration = -1
	start := sim.Now()
	b.Acquire(Rx, func() { lat = sim.Now() - start })
	if lat != 0 {
		t.Fatalf("acquire latency = %v, want 0", lat)
	}
}

func TestSetSleepEnabledWakesImmediately(t *testing.T) {
	sim, b := newBus(5, nil)
	sim.RunUntil(200 * time.Millisecond)
	if !b.Asleep() {
		t.Fatal("precondition failed")
	}
	b.SetSleepEnabled(false)
	if b.Asleep() {
		t.Fatal("bus asleep after disabling sleep")
	}
	sim.RunUntil(2 * time.Second)
	if n := events(b, "bus_sleep", ""); n != 1 { // only the initial one
		t.Fatalf("sleeps = %d, want 1", n)
	}
}

func TestRepeatedSleepWakeCycles(t *testing.T) {
	sim, b := newBus(6, nil)
	// One acquire every 200 ms: each finds the bus asleep (Tis=50ms).
	for i := 1; i <= 5; i++ {
		sim.PostAt(time.Duration(i)*200*time.Millisecond, func() {
			b.Acquire(Tx, func() {})
		})
	}
	sim.RunUntil(1200 * time.Millisecond)
	if n := events(b, "bus_waking", "dir=tx"); n != 5 {
		t.Fatalf("paid wakes = %d, want 5", n)
	}
	if n := events(b, "bus_sleep", ""); n < 5 {
		t.Fatalf("sleeps = %d, want >= 5", n)
	}
}

func TestWakeLatencyDistributionMatchesTable3(t *testing.T) {
	// Sample many wake latencies and compare with the paper's Table 3
	// dvsend row (bus sleep enabled, 1s interval): mean ≈ 10.15 ms,
	// max ≤ ~13.5 ms.
	sim, b := newBus(7, nil)
	var lats stats.Sample
	var step func(i int)
	step = func(i int) {
		if i >= 200 {
			return
		}
		start := sim.Now()
		b.Acquire(Tx, func() {
			lats = append(lats, sim.Now()-start)
			sim.Post(200*time.Millisecond, func() { step(i + 1) })
		})
	}
	sim.Post(200*time.Millisecond, func() { step(0) })
	sim.RunUntil(50 * time.Second)
	if len(lats) != 200 {
		t.Fatalf("collected %d samples", len(lats))
	}
	mean := stats.Millis(lats.Mean())
	if mean < 9 || mean > 11.5 {
		t.Fatalf("mean wake = %.2fms, want ≈10ms (Table 3)", mean)
	}
	if max := stats.Millis(lats.Max()); max > 13.6 {
		t.Fatalf("max wake = %.2fms, want ≤ 13.6ms", max)
	}
}

func TestQualcommWakesCheaperThanBroadcom(t *testing.T) {
	if Qualcomm().WakeTxLatency.Mean() >= Broadcom().WakeTxLatency.Mean() {
		t.Fatal("SMD wake should be cheaper than SDIO (Table 2 contrast)")
	}
	if Qualcomm().WakeRxLatency.Mean() >= Broadcom().WakeRxLatency.Mean() {
		t.Fatal("SMD rx wake should be cheaper than SDIO")
	}
}

func TestTraceRecordsTransitions(t *testing.T) {
	sim := simtime.New(8)
	tr := trace.New(0)
	b := New(sim, Broadcom(), tr)
	sim.RunUntil(100 * time.Millisecond)
	b.Acquire(Tx, func() {})
	sim.RunUntil(200 * time.Millisecond)
	names := tr.Names()
	want := map[string]bool{"bus_sleep": false, "bus_waking": false, "bus_wake": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("trace missing %q events: %v", n, names)
		}
	}
}

func TestNilAcquirePanics(t *testing.T) {
	_, b := newBus(9, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	b.Acquire(Tx, nil)
}
