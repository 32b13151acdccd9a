package mac

import (
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

const beaconIval = 102400 * time.Microsecond

type bench struct {
	sim   *simtime.Sim
	med   *medium.Medium
	ap    *AP
	sta   *STA
	fac   *packet.Factory
	rxUp  []*packet.Packet
	rxAt  []time.Duration
	wired []*packet.Packet
}

// newBench assembles AP + one phone STA with the given PSM parameters.
// Beacon phase is pinned to 0 so TBTTs land at k*102.4ms exactly.
func newBench(t *testing.T, seed int64, mod func(*STAConfig)) *bench {
	t.Helper()
	b := &bench{sim: simtime.New(seed), fac: &packet.Factory{}}
	b.med = medium.New(b.sim, phy.Default80211g(), medium.DefaultOptions())
	apCfg := DefaultAPConfig()
	apCfg.BeaconPhase = 0
	apCfg.ForwardLatency = simtime.Const(100 * time.Microsecond)
	b.ap = NewAP(b.sim, b.med, apCfg, b.fac, nil)
	b.ap.SetWiredOut(func(p *packet.Packet) { b.wired = append(b.wired, p) })

	cfg := DefaultSTAConfig()
	cfg.MAC = packet.MAC(1)
	cfg.IP = packet.IP(192, 168, 1, 2)
	cfg.BSSID = apCfg.MAC
	cfg.AID = 1
	cfg.PSMTimeout = 50 * time.Millisecond
	cfg.PSMTimeoutJitter = 0
	cfg.BeaconMissProb = 0
	if mod != nil {
		mod(&cfg)
	}
	b.sta = NewSTA(b.sim, b.med, cfg, b.fac, nil, func(p *packet.Packet) {
		b.rxUp = append(b.rxUp, p)
		b.rxAt = append(b.rxAt, b.sim.Now())
	})
	b.sta.SetBeaconSchedule(b.ap)
	b.ap.Associate(cfg.MAC, cfg.AID, cfg.IP, cfg.AssocListenInterval)
	return b
}

func (b *bench) icmpTo(dst packet.IPv4Addr) *packet.Packet {
	return b.fac.NewPacket(
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 2), Dst: dst},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 1},
		&packet.Payload{Data: make([]byte, 56)},
	)
}

func (b *bench) responseFrom(src packet.IPv4Addr) *packet.Packet {
	return b.fac.NewPacket(
		&packet.IPv4{TTL: 60, Protocol: packet.ProtoICMP, Src: src, Dst: packet.IP(192, 168, 1, 2)},
		&packet.ICMP{Type: packet.ICMPEchoReply, ID: 7, Seq: 1},
		&packet.Payload{Data: make([]byte, 56)},
	)
}

func TestSTADozesAfterPSMTimeout(t *testing.T) {
	b := newBench(t, 1, nil)
	b.sim.RunUntil(40 * time.Millisecond)
	if b.sta.State() != StateCAM {
		t.Fatalf("state at 40ms = %v, want CAM (Tip=50ms)", b.sta.State())
	}
	b.sim.RunUntil(60 * time.Millisecond)
	if b.sta.State() == StateCAM {
		t.Fatal("station still CAM after Tip expired")
	}
	if b.sta.Stats.NullDataSent == 0 {
		t.Fatal("no null-data PM=1 frame sent on doze")
	}
}

func TestActivityResetsPSMTimeout(t *testing.T) {
	b := newBench(t, 1, nil)
	// Send every 20 ms for 300 ms: station must never doze (db < Tip,
	// the AcuteMon invariant).
	tick := simtime.NewTicker(b.sim, 20*time.Millisecond, 0, func() {
		b.sta.Send(b.icmpTo(packet.IP(10, 0, 0, 9)), nil)
	})
	b.sim.RunUntil(300 * time.Millisecond)
	tick.Stop()
	if b.sta.Stats.Dozes != 0 {
		t.Fatalf("station dozed %d times despite 20ms activity", b.sta.Stats.Dozes)
	}
	if b.sta.State() != StateCAM {
		t.Fatalf("state = %v, want CAM", b.sta.State())
	}
}

func TestPSMDisabledNeverDozes(t *testing.T) {
	b := newBench(t, 1, func(c *STAConfig) { c.PSMEnabled = false })
	b.sim.RunUntil(2 * time.Second)
	if b.sta.Stats.Dozes != 0 || b.sta.State() != StateCAM {
		t.Fatal("PSM-disabled station dozed")
	}
}

func TestUplinkBridgedToWired(t *testing.T) {
	b := newBench(t, 1, nil)
	b.sta.Send(b.icmpTo(packet.IP(10, 0, 0, 9)), nil)
	b.sim.RunUntil(10 * time.Millisecond)
	if len(b.wired) != 1 {
		t.Fatalf("wired side got %d packets, want 1", len(b.wired))
	}
	if b.wired[0].Dot11() != nil {
		t.Fatal("AP did not strip the 802.11 header when bridging")
	}
	if b.wired[0].IPv4().Dst != packet.IP(10, 0, 0, 9) {
		t.Fatal("wrong packet bridged")
	}
}

func TestDownlinkToCAMStationIsImmediate(t *testing.T) {
	b := newBench(t, 1, nil)
	// Keep the station awake, then inject a response from the wired side.
	b.sim.RunUntil(5 * time.Millisecond)
	b.sta.Send(b.icmpTo(packet.IP(10, 0, 0, 9)), nil) // activity at ~5ms
	b.sim.RunUntil(10 * time.Millisecond)
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	b.sim.RunUntil(20 * time.Millisecond)
	if len(b.rxUp) != 1 {
		t.Fatalf("station received %d packets, want 1", len(b.rxUp))
	}
	if got := b.rxAt[0]; got > 12*time.Millisecond {
		t.Fatalf("CAM delivery took until %v, want ~immediate", got)
	}
}

func TestDownlinkToDozingStationWaitsForBeacon(t *testing.T) {
	b := newBench(t, 3, nil)
	// Station dozes at ~50ms (Tip). Deliver a response at 70ms: it must
	// be buffered and only arrive after the TBTT at 102.4ms.
	b.sim.RunUntil(70 * time.Millisecond)
	if b.sta.State() != StateDoze {
		t.Fatalf("station state at 70ms = %v, want doze", b.sta.State())
	}
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	b.sim.RunUntil(75 * time.Millisecond)
	if len(b.ap.psBuf[packet.MAC(1)]) != 1 {
		t.Fatalf("AP buffered %d frames, want 1", len(b.ap.psBuf[packet.MAC(1)]))
	}
	if len(b.rxUp) != 0 {
		t.Fatal("dozing station received frame early")
	}
	b.sim.RunUntil(120 * time.Millisecond)
	if len(b.rxUp) != 1 {
		t.Fatalf("station received %d packets after beacon, want 1", len(b.rxUp))
	}
	if b.rxAt[0] < beaconIval {
		t.Fatalf("delivery at %v, want after TBTT %v", b.rxAt[0], beaconIval)
	}
	if b.rxAt[0] > beaconIval+10*time.Millisecond {
		t.Fatalf("delivery at %v, want within ~10ms of TBTT", b.rxAt[0])
	}
	if b.sta.Stats.PSPollsSent == 0 {
		t.Fatal("no PS-Poll sent for buffered frame")
	}
}

func TestWakeOnSendFlushesBuffer(t *testing.T) {
	b := newBench(t, 4, nil)
	b.sim.RunUntil(70 * time.Millisecond) // dozing
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	b.sim.RunUntil(80 * time.Millisecond)
	if len(b.ap.psBuf[packet.MAC(1)]) != 1 {
		t.Fatal("frame not buffered")
	}
	// The station transmits (PM=0): the AP must flush the buffer without
	// waiting for the next beacon.
	b.sta.Send(b.icmpTo(packet.IP(10, 0, 0, 9)), nil)
	b.sim.RunUntil(90 * time.Millisecond)
	if len(b.rxUp) != 1 {
		t.Fatalf("flush did not deliver: got %d", len(b.rxUp))
	}
	if b.rxAt[0] >= beaconIval {
		t.Fatalf("flush delivery waited for beacon: %v", b.rxAt[0])
	}
}

func TestBeaconMissAddsOneInterval(t *testing.T) {
	b := newBench(t, 5, func(c *STAConfig) { c.BeaconMissProb = 1.0 })
	b.sim.RunUntil(70 * time.Millisecond)
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	// With miss probability 1 the TIM is never acted on: the frame stays
	// buffered across many beacons.
	b.sim.RunUntil(500 * time.Millisecond)
	if len(b.rxUp) != 0 {
		t.Fatal("frame delivered despite missProb=1")
	}
	if len(b.ap.psBuf[packet.MAC(1)]) != 1 {
		t.Fatal("frame lost from PS buffer")
	}
	if b.sta.Stats.BeaconsMissed < 3 {
		t.Fatalf("beacons missed = %d, want several", b.sta.Stats.BeaconsMissed)
	}
}

func TestListenIntervalSkipsBeacons(t *testing.T) {
	b := newBench(t, 6, func(c *STAConfig) { c.ListenInterval = 3 })
	b.sim.RunUntil(70 * time.Millisecond)
	b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	b.sim.RunUntil(2 * beaconIval)
	if len(b.rxUp) != 0 {
		t.Fatal("delivered before the station's listen interval")
	}
	b.sim.RunUntil(4 * beaconIval)
	if len(b.rxUp) != 1 {
		t.Fatalf("not delivered at the 3rd beacon: got %d", len(b.rxUp))
	}
}

func TestPSMTimeoutJitterVariesDozeTime(t *testing.T) {
	dozeAt := func(seed int64) time.Duration {
		b := newBench(t, seed, func(c *STAConfig) { c.PSMTimeoutJitter = 15 * time.Millisecond })
		for b.sta.State() == StateCAM && b.sim.Now() < 80*time.Millisecond {
			if !b.sim.Step() {
				break
			}
		}
		return b.sim.Now()
	}
	seen := map[time.Duration]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		at := dozeAt(seed)
		if at < 30*time.Millisecond || at > 70*time.Millisecond {
			t.Fatalf("seed %d: dozed at %v, want within 50±15ms (+tx)", seed, at)
		}
		seen[at] = true
	}
	if len(seen) < 3 {
		t.Fatalf("jittered doze times not varied: %v", seen)
	}
}

func TestPSBufferCap(t *testing.T) {
	b := newBench(t, 8, func(c *STAConfig) { c.BeaconMissProb = 1.0 })
	b.sim.RunUntil(70 * time.Millisecond)
	for i := 0; i < 100; i++ {
		b.ap.WiredDeliver(b.responseFrom(packet.IP(10, 0, 0, 9)))
	}
	b.sim.RunUntil(90 * time.Millisecond)
	if got := len(b.ap.psBuf[packet.MAC(1)]); got > DefaultAPConfig().PSBufferCap {
		t.Fatalf("buffer grew to %d, cap is %d", got, DefaultAPConfig().PSBufferCap)
	}
	if b.ap.Stats.PSBufferDrops == 0 {
		t.Fatal("no drops despite overflow")
	}
}

func TestBeaconsAreSentEveryInterval(t *testing.T) {
	b := newBench(t, 9, nil)
	b.sim.RunUntil(1 * time.Second)
	// 1s / 102.4ms = 9.76 → 10 beacons (t=0 included).
	if got := b.ap.Stats.BeaconsSent; got < 9 || got > 11 {
		t.Fatalf("beacons sent = %d, want ~10", got)
	}
}

func TestEndToEndPSMInflation(t *testing.T) {
	// The Table 2 mechanism in miniature: echo with 60ms network RTT
	// against Tip=40ms (Nexus 4-like). At a 1s probe interval the reply
	// must be beacon-buffered, inflating user RTT far beyond 60ms.
	b := newBench(t, 10, func(c *STAConfig) { c.PSMTimeout = 40 * time.Millisecond })
	serverIP := packet.IP(10, 0, 0, 9)
	var sentAt time.Duration
	// wire an echo server with 60ms turnaround
	b.ap.SetWiredOut(func(p *packet.Packet) {
		b.sim.Post(60*time.Millisecond, func() {
			b.ap.WiredDeliver(b.responseFrom(serverIP))
		})
	})
	b.sim.RunUntil(200 * time.Millisecond) // let the station doze deeply
	sentAt = b.sim.Now()
	b.sta.Send(b.icmpTo(serverIP), nil)
	b.sim.RunUntil(600 * time.Millisecond)
	if len(b.rxUp) != 1 {
		t.Fatalf("received %d responses", len(b.rxUp))
	}
	rtt := b.rxAt[0] - sentAt
	if rtt < 65*time.Millisecond {
		t.Fatalf("rtt = %v, want inflated beyond network 60ms", rtt)
	}
	if rtt > 230*time.Millisecond {
		t.Fatalf("rtt = %v, want under ~2 beacon intervals", rtt)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		b := newBench(t, 11, nil)
		tick := simtime.NewTicker(b.sim, 150*time.Millisecond, 0, func() {
			b.sta.Send(b.icmpTo(packet.IP(10, 0, 0, 9)), nil)
		})
		b.sim.RunUntil(2 * time.Second)
		tick.Stop()
		return b.sta.Stats.Dozes, b.ap.Stats.BeaconsSent
	}
	d1, b1 := run()
	d2, b2 := run()
	if d1 != d2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", d1, b1, d2, b2)
	}
}
