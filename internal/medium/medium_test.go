package medium

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

// fakeStation records deliveries and has a switchable radio.
type fakeStation struct {
	mac      packet.MACAddr
	radio    bool
	received []*packet.Packet
}

func (f *fakeStation) MAC() packet.MACAddr           { return f.mac }
func (f *fakeStation) RadioOn() bool                 { return f.radio }
func (f *fakeStation) DeliverFrame(p *packet.Packet) { f.received = append(f.received, p) }

type fakeTap struct {
	frames []*packet.Packet
	starts []time.Duration
	ends   []time.Duration
}

func (f *fakeTap) CaptureFrame(p *packet.Packet, s, e time.Duration) {
	f.frames = append(f.frames, p)
	f.starts = append(f.starts, s)
	f.ends = append(f.ends, e)
}

// airtime sums the time the captured frames spent on the air: the
// medium's busy time without each round's access and ACK.
func (f *fakeTap) airtime() time.Duration {
	var air time.Duration
	for i := range f.frames {
		air += f.ends[i] - f.starts[i]
	}
	return air
}

// collidedGaps counts the gaps between consecutive captures longer than
// a backlogged medium takes between two frames when no round in between
// collides: the earlier frame's SIFS and ACK, then DIFS and a
// first-attempt backoff. While some station is backlogged, only a
// collided round fills a longer gap.
func collidedGaps(tap *fakeTap, p phy.Params) int {
	limit := p.SIFS + p.AckTime() + p.DIFS() + time.Duration(p.CWmin)*p.SlotTime
	n := 0
	for i := 1; i < len(tap.starts); i++ {
		if tap.starts[i]-tap.ends[i-1] > limit {
			n++
		}
	}
	return n
}

func dataFrame(f *packet.Factory, src, dst packet.MACAddr, payload int) *packet.Packet {
	return f.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, Addr1: dst, Addr2: src, Addr3: dst},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2)},
		&packet.UDP{SrcPort: 1, DstPort: 2},
		&packet.Payload{Data: make([]byte, payload)},
	)
}

func newTestMedium(seed int64) (*simtime.Sim, *Medium, *packet.Factory) {
	sim := simtime.New(seed)
	m := New(sim, phy.Default80211g(), DefaultOptions())
	return sim, m, &packet.Factory{}
}

func TestUnicastDelivery(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	tap := &fakeTap{}
	m.AttachTap(tap)
	var result TxResult = -1
	m.Transmit(a, dataFrame(f, a.mac, b.mac, 100), false, func(r TxResult) { result = r })
	for sim.Step() {
	}
	if result != TxOK {
		t.Fatalf("result = %v, want ok", result)
	}
	if len(b.received) != 1 {
		t.Fatalf("b received %d frames, want 1", len(b.received))
	}
	if len(a.received) != 0 {
		t.Fatal("sender received its own unicast frame")
	}
	if len(tap.frames) != 1 {
		t.Fatalf("frames on air = %d", len(tap.frames))
	}
}

func TestBroadcastReachesAllAwakeStations(t *testing.T) {
	sim, m, f := newTestMedium(1)
	ap := &fakeStation{mac: packet.MAC(1), radio: true}
	awake := &fakeStation{mac: packet.MAC(2), radio: true}
	dozing := &fakeStation{mac: packet.MAC(3), radio: false}
	m.Attach(ap)
	m.Attach(awake)
	m.Attach(dozing)
	beacon := f.NewPacket(
		&packet.Dot11{Type: packet.Dot11Management, Subtype: packet.SubtypeBeacon,
			Addr1: packet.BroadcastMAC, Addr2: ap.mac, Addr3: ap.mac},
		&packet.Beacon{IntervalTU: 100},
	)
	var result TxResult = -1
	m.Transmit(ap, beacon, true, func(r TxResult) { result = r })
	for sim.Step() {
	}
	if result != TxOK {
		t.Fatalf("result = %v", result)
	}
	if len(awake.received) != 1 {
		t.Fatal("awake station missed broadcast")
	}
	if len(dozing.received) != 0 {
		t.Fatal("dozing station received broadcast")
	}
}

func TestUnicastToDozingStationFails(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: false}
	m.Attach(a)
	m.Attach(b)
	var result TxResult = -1
	m.Transmit(a, dataFrame(f, a.mac, b.mac, 100), false, func(r TxResult) { result = r })
	for sim.Step() {
	}
	if result != TxNoReceiver {
		t.Fatalf("result = %v, want no-receiver", result)
	}
	if len(b.received) != 0 {
		t.Fatal("dozing station received unicast")
	}
}

func TestUnicastToUnknownStation(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	m.Attach(a)
	var result TxResult = -1
	m.Transmit(a, dataFrame(f, a.mac, packet.MAC(99), 100), false, func(r TxResult) { result = r })
	for sim.Step() {
	}
	if result != TxNoReceiver {
		t.Fatalf("result = %v, want no-receiver", result)
	}
}

func TestTapsSeeEverythingIncludingFailures(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: false}
	m.Attach(a)
	m.Attach(b)
	tap := &fakeTap{}
	m.AttachTap(tap)
	m.Transmit(a, dataFrame(f, a.mac, b.mac, 100), false, nil)
	for sim.Step() {
	}
	if len(tap.frames) != 1 {
		t.Fatalf("tap captured %d frames, want 1 (even when unacked)", len(tap.frames))
	}
	if !(tap.starts[0] < tap.ends[0]) {
		t.Fatal("capture air interval empty")
	}
}

func TestQueueCapDrops(t *testing.T) {
	sim, m, f := newTestMedium(1)
	opts := DefaultOptions()
	opts.QueueCap = 2
	m2 := New(sim, phy.Default80211g(), opts)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m2.Attach(a)
	m2.Attach(b)
	_ = m
	drops := 0
	for i := 0; i < 10; i++ {
		m2.Transmit(a, dataFrame(f, a.mac, b.mac, 1400), false, func(r TxResult) {
			if r == TxDroppedQueue {
				drops++
			}
		})
	}
	for sim.Step() {
	}
	if drops == 0 {
		t.Fatal("no drops despite tiny queue")
	}
	if len(b.received)+drops != 10 {
		t.Fatalf("received %d + dropped %d != 10", len(b.received), drops)
	}
}

func TestFIFOWithinStation(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	var ids []uint64
	for i := 0; i < 5; i++ {
		p := dataFrame(f, a.mac, b.mac, 100)
		m.Transmit(a, p, false, nil)
		ids = append(ids, p.ID)
	}
	for sim.Step() {
	}
	if len(b.received) != 5 {
		t.Fatalf("received %d frames", len(b.received))
	}
	for i, p := range b.received {
		if p.ID != ids[i] {
			t.Fatalf("out-of-order delivery: got %d at %d, want %d", p.ID, i, ids[i])
		}
	}
}

func TestPriorityJumpsQueue(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	first := dataFrame(f, a.mac, b.mac, 1400)
	second := dataFrame(f, a.mac, b.mac, 1400)
	prio := dataFrame(f, a.mac, b.mac, 50)
	m.Transmit(a, first, false, nil)
	m.Transmit(a, second, false, nil)
	m.Transmit(a, prio, true, nil)
	for sim.Step() {
	}
	if len(b.received) != 3 {
		t.Fatalf("received %d frames", len(b.received))
	}
	// first is already being transmitted when prio arrives; prio must
	// precede second.
	if b.received[1].ID != prio.ID {
		t.Fatalf("priority frame delivered at position %d", 2)
	}
}

func TestAirtimeOccupancy(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	var busy time.Duration // the idle medium starts the round at 0
	m.Transmit(a, dataFrame(f, a.mac, b.mac, 1400), false, func(TxResult) { busy = sim.Now() })
	for sim.Step() {
	}
	// One 1400B+headers frame at 24 Mbps is ~500µs; with DIFS, backoff,
	// SIFS+ACK total busy must be within [0.5ms, 1.5ms].
	if busy < 500*time.Microsecond || busy > 1500*time.Microsecond {
		t.Fatalf("busy time = %v", busy)
	}
}

func TestSaturationThroughputMatchesTestbed(t *testing.T) {
	// Offer 25 Mbps of 1470B UDP datagrams (the paper's 10×2.5 Mbps iPerf
	// load) for one simulated second and check the goodput lands in the
	// regime the paper reports: well under the ~18 Mbps ceiling, around
	// 10 Mbps, and the channel near-saturated.
	sim, m, f := newTestMedium(42)
	gen := &fakeStation{mac: packet.MAC(1), radio: true}
	ap := &fakeStation{mac: packet.MAC(2), radio: true}
	other := &fakeStation{mac: packet.MAC(3), radio: true}
	m.Attach(gen)
	m.Attach(ap)
	m.Attach(other)
	tap := &fakeTap{}
	m.AttachTap(tap)

	const payload = 1470
	interval := time.Duration(float64(payload*8) / 25e6 * float64(time.Second))
	var delivered int
	var offered int
	tick := simtime.NewTicker(sim, interval, 0, func() {
		offered++
		m.Transmit(gen, dataFrame(f, gen.mac, ap.mac, payload), false, func(r TxResult) {
			if r == TxOK {
				delivered++
			}
		})
	})
	// other station keeps one small frame in flight to create contention
	var pump func()
	pump = func() {
		m.Transmit(other, dataFrame(f, other.mac, ap.mac, 64), false, func(TxResult) {
			sim.Post(5*time.Millisecond, pump)
		})
	}
	pump()
	sim.RunUntil(time.Second)
	tick.Stop()

	goodput := float64(delivered * payload * 8) // bits in 1s
	if goodput < 7e6 || goodput > 20e6 {
		t.Fatalf("saturation goodput = %.1f Mbps, want ~[7,20]", goodput/1e6)
	}
	if offered <= delivered {
		t.Fatalf("no loss under overload: offered %d delivered %d", offered, delivered)
	}
	if u := float64(tap.airtime()) / float64(sim.Now()); u < 0.7 {
		t.Fatalf("utilization = %.2f, want saturated (>0.7)", u)
	}
	if collidedGaps(tap, phy.Default80211g()) == 0 {
		t.Fatal("no collisions despite contention")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	_, m, _ := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	m.Attach(a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	m.Attach(&fakeStation{mac: packet.MAC(1)})
}

func TestTransmitWithoutDot11Panics(t *testing.T) {
	_, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	m.Attach(a)
	defer func() {
		if recover() == nil {
			t.Fatal("frame without 802.11 header did not panic")
		}
	}()
	m.Transmit(a, f.NewPacket(&packet.IPv4{}), false, nil)
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	run := func() (int, time.Duration) {
		sim, m, f := newTestMedium(7)
		a := &fakeStation{mac: packet.MAC(1), radio: true}
		b := &fakeStation{mac: packet.MAC(2), radio: true}
		m.Attach(a)
		m.Attach(b)
		tap := &fakeTap{}
		m.AttachTap(tap)
		for i := 0; i < 50; i++ {
			m.Transmit(a, dataFrame(f, a.mac, b.mac, 500), false, nil)
			m.Transmit(b, dataFrame(f, b.mac, a.mac, 300), false, nil)
		}
		for sim.Step() {
		}
		return len(tap.frames), sim.Now()
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("runs diverged: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
}

// mutatingStation rewrites every frame it receives, as a forwarding
// station may.
type mutatingStation struct{ fakeStation }

func (s *mutatingStation) DeliverFrame(p *packet.Packet) {
	p.Dot11().Retry = true
	p.IPv4().TTL--
	s.fakeStation.DeliverFrame(p)
}

func TestTapsShareOneCopyTheReceiverNeverSees(t *testing.T) {
	sim, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &mutatingStation{fakeStation{mac: packet.MAC(2), radio: true}}
	m.Attach(a)
	m.Attach(b)
	tap1, tap2, tap3 := &fakeTap{}, &fakeTap{}, &fakeTap{}
	m.AttachTap(tap1)
	m.AttachTap(tap2)
	m.AttachTap(tap3)
	sent := dataFrame(f, a.mac, b.mac, 100)
	m.Transmit(a, sent, false, nil)
	for sim.Step() {
	}
	if len(b.received) != 1 || len(tap1.frames) != 1 {
		t.Fatalf("received %d, tapped %d; want 1 and 1", len(b.received), len(tap1.frames))
	}
	shared := tap1.frames[0]
	if tap2.frames[0] != shared || tap3.frames[0] != shared {
		t.Fatal("taps received different copies of one frame")
	}
	if b.received[0] != sent {
		t.Fatal("receiver did not get the original frame")
	}
	if shared == sent {
		t.Fatal("taps share the receiver's frame")
	}
	if shared.ID != sent.ID {
		t.Fatalf("tap copy has ID %d, want %d", shared.ID, sent.ID)
	}
	if !sent.Dot11().Retry || sent.IPv4().TTL != 63 {
		t.Fatal("receiver's mutation did not land on its own frame")
	}
	if shared.Dot11().Retry || shared.IPv4().TTL != 64 {
		t.Fatalf("receiver's mutation reached the taps: retry=%v ttl=%d",
			shared.Dot11().Retry, shared.IPv4().TTL)
	}
}

func TestTransmitFromUnattachedStationPanics(t *testing.T) {
	_, m, f := newTestMedium(1)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	defer func() {
		if recover() == nil {
			t.Fatal("transmit from an unattached station did not panic")
		}
	}()
	m.Transmit(a, dataFrame(f, a.mac, packet.MAC(2), 10), false, nil)
}

// orderStation appends its name to a shared log on every delivery.
type orderStation struct {
	fakeStation
	name string
	log  *[]string
}

func (s *orderStation) DeliverFrame(p *packet.Packet) { *s.log = append(*s.log, s.name) }

// A broadcast reaches the awake stations in attach order, every run,
// so what they do in response queues in a seed-determined order.
func TestBroadcastDeliveredInAttachOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		sim, m, f := newTestMedium(1)
		var log []string
		src := &orderStation{fakeStation{mac: packet.MAC(1), radio: true}, "src", &log}
		m.Attach(src)
		for i, name := range []string{"a", "b", "c", "d", "e"} {
			m.Attach(&orderStation{fakeStation{mac: packet.MAC(uint32(i + 2)), radio: true}, name, &log})
		}
		m.Transmit(src, dataFrame(f, src.mac, packet.BroadcastMAC, 10), false, nil)
		for sim.Step() {
		}
		if got := fmt.Sprint(log); got != "[a b c d e]" {
			t.Fatalf("run %d: delivery order %s, want attach order", run, got)
		}
	}
}
