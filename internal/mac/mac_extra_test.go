package mac

import (
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

func TestAPRebuffersWhenStationDozesMidDelivery(t *testing.T) {
	// Race: the AP believes the station awake (PM=0 on its last frame)
	// and transmits, but the station has just dozed. The unacked frame
	// must go back into the PS buffer and be delivered after the next
	// beacon — not lost.
	b := newBench(t, 40, func(c *STAConfig) { c.PSMTimeout = 30 * time.Millisecond })
	// Keep the AP's view stale: drop the station's null-data announcement
	// by filling its own queue? Simpler: force the association entry to
	// "awake" right before a delivery to a dozing radio.
	b.sim.RunUntil(60 * time.Millisecond)
	if b.sta.State() != StateDoze {
		t.Fatalf("precondition: state = %v", b.sta.State())
	}
	// Pretend the AP missed the PM=1 (as if the null frame collided).
	b.ap.assoc[packet.MAC(1)].ps = false
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	b.sim.RunUntil(70 * time.Millisecond)
	if b.ap.Stats.Rebuffered == 0 {
		t.Fatal("failed delivery was not re-buffered")
	}
	if len(b.rxUp) != 0 {
		t.Fatal("frame delivered to a dozing radio")
	}
	// The re-buffered frame arrives via the normal TIM path.
	b.sim.RunUntil(250 * time.Millisecond)
	if len(b.rxUp) != 1 {
		t.Fatalf("re-buffered frame never delivered: %d", len(b.rxUp))
	}
	if b.rxAt[0] < beaconIval {
		t.Fatalf("delivery at %v, want after a TBTT", b.rxAt[0])
	}
}

func TestMultipleBufferedFramesDrainViaMoreData(t *testing.T) {
	b := newBench(t, 41, nil)
	b.sim.RunUntil(70 * time.Millisecond) // dozing
	for i := 0; i < 3; i++ {
		b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	}
	b.sim.RunUntil(80 * time.Millisecond)
	if got := len(b.ap.psBuf[packet.MAC(1)]); got != 3 {
		t.Fatalf("buffered = %d", got)
	}
	b.sim.RunUntil(300 * time.Millisecond)
	if len(b.rxUp) != 3 {
		t.Fatalf("delivered %d/3 buffered frames", len(b.rxUp))
	}
	// Retrieval costs one PS-Poll per frame.
	if b.sta.Stats.PSPollsSent < 3 {
		t.Fatalf("ps-polls = %d, want ≥3", b.sta.Stats.PSPollsSent)
	}
}

func TestUnassociatedStationTrafficIgnored(t *testing.T) {
	b := newBench(t, 42, nil)
	// A frame from a MAC the AP never associated: PM tracking and
	// routing must not panic, and nothing is forwarded for it.
	stranger := NewSTA(b.sim, b.med, STAConfig{
		MAC: packet.MAC(77), IP: packet.IP(192, 168, 1, 77), BSSID: b.ap.MAC(),
		PSMEnabled: false,
	}, b.fac, nil, nil)
	stranger.Send(b.fac.NewPacket(
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 77), Dst: packet.IP(10, 0, 0, 9)},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1},
	), nil)
	b.sim.RunUntil(50 * time.Millisecond)
	// The AP still bridges the IP packet (open testbed network), but no
	// PS state is created for the stranger.
	if len(b.ap.psBuf[packet.MAC(77)]) != 0 {
		t.Fatal("PS buffer created for unassociated station")
	}
}

func TestPowerStateHookObservesTransitions(t *testing.T) {
	b := newBench(t, 43, nil)
	var transitions []PowerState
	b.sta.OnPowerState = func(old, new PowerState) { transitions = append(transitions, new) }
	b.sim.RunUntil(200 * time.Millisecond) // doze + listen cycles
	if len(transitions) == 0 {
		t.Fatal("no transitions observed")
	}
	sawDoze, sawListen := false, false
	for _, s := range transitions {
		if s == StateDoze {
			sawDoze = true
		}
		if s == StateListen {
			sawListen = true
		}
	}
	if !sawDoze || !sawListen {
		t.Fatalf("transitions = %v, want doze and listen", transitions)
	}
}

func TestBeaconIntervalArithmetic(t *testing.T) {
	sim := simtime.New(44)
	// AP with a non-default beacon interval: 50 TU.
	fac := &packet.Factory{}
	med := newBenchMedium(sim)
	cfg := DefaultAPConfig()
	cfg.BeaconIntervalTU = 50
	cfg.BeaconPhase = 0
	ap := NewAP(sim, med, cfg, fac, nil)
	if got := ap.BeaconInterval(); got != 51200*time.Microsecond {
		t.Fatalf("interval = %v, want 51.2ms", got)
	}
	if next := ap.NextTBTT(60 * time.Millisecond); next != 102400*time.Microsecond {
		t.Fatalf("next TBTT = %v, want 102.4ms", next)
	}
}

// newBenchMedium builds a bare medium for AP-only tests.
func newBenchMedium(sim *simtime.Sim) *medium.Medium {
	return medium.New(sim, phy.Default80211g(), medium.DefaultOptions())
}
