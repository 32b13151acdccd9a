package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/simtime"
)

func TestRadioIntegration(t *testing.T) {
	sim := simtime.New(1)
	m := NewMeter(sim, DefaultPowerModel())
	// 1s of CAM at 220mW = 220mJ.
	sim.RunUntil(time.Second)
	m.RadioState(mac.StateDoze)
	// 1s of doze at 12mW = 12mJ.
	sim.RunUntil(2 * time.Second)
	rep := m.Snapshot()
	if math.Abs(rep.RadioMJ-232) > 0.5 {
		t.Fatalf("radio energy = %.2fmJ, want ≈232", rep.RadioMJ)
	}
	if rep.Awake != time.Second {
		t.Fatalf("awake = %v, want 1s", rep.Awake)
	}
}

func TestBusIntegration(t *testing.T) {
	sim := simtime.New(2)
	m := NewMeter(sim, DefaultPowerModel())
	sim.RunUntil(500 * time.Millisecond)
	m.BusState(true) // asleep
	sim.RunUntil(time.Second)
	rep := m.Snapshot()
	// 0.5s × 25mW + 0.5s × 2mW = 13.5mJ.
	if math.Abs(rep.BusMJ-13.5) > 0.2 {
		t.Fatalf("bus energy = %.2fmJ, want ≈13.5", rep.BusMJ)
	}
}

func TestFrameCharges(t *testing.T) {
	sim := simtime.New(3)
	m := NewMeter(sim, DefaultPowerModel())
	m.FrameTx(time.Millisecond) // 480mW × 1ms = 0.48mJ
	m.FrameRx(time.Millisecond) // 210mW × 1ms = 0.21mJ
	rep := m.Snapshot()
	if math.Abs(rep.FrameMJ-0.69) > 0.01 {
		t.Fatalf("frame energy = %.3fmJ, want 0.69", rep.FrameMJ)
	}
}

func TestDeltaIsolation(t *testing.T) {
	sim := simtime.New(4)
	m := NewMeter(sim, DefaultPowerModel())
	sim.RunUntil(time.Second)
	a := m.Snapshot()
	sim.RunUntil(3 * time.Second)
	b := m.Snapshot()
	if w := b.Window - a.Window; w != 2*time.Second {
		t.Fatalf("delta window = %v", w)
	}
	// 2s of CAM radio.
	if r := b.RadioMJ - a.RadioMJ; math.Abs(r-440) > 1 {
		t.Fatalf("delta radio = %.1fmJ, want 440", r)
	}
}

func TestSnapshotIdempotentAtSameInstant(t *testing.T) {
	sim := simtime.New(5)
	m := NewMeter(sim, DefaultPowerModel())
	sim.RunUntil(time.Second)
	a := m.Snapshot()
	b := m.Snapshot()
	if a.TotalMJ() != b.TotalMJ() {
		t.Fatalf("snapshots at the same instant differ: %v vs %v", a, b)
	}
	if a.String() == "" {
		t.Fatal("report string empty")
	}
}

func TestDozeSavesEnergy(t *testing.T) {
	run := func(doze bool) float64 {
		sim := simtime.New(6)
		m := NewMeter(sim, DefaultPowerModel())
		if doze {
			sim.Post(100*time.Millisecond, func() { m.RadioState(mac.StateDoze) })
		}
		sim.RunUntil(10 * time.Second)
		return m.Snapshot().TotalMJ()
	}
	awake, dozing := run(false), run(true)
	if dozing >= awake/2 {
		t.Fatalf("dozing (%.0fmJ) should save far more than half vs awake (%.0fmJ)", dozing, awake)
	}
}
