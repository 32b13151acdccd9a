package driver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeSTA completes sends instantly with TxOK and records frames.
type fakeSTA struct {
	sent []*packet.Packet
}

func (f *fakeSTA) Send(ip *packet.Packet, done func(medium.TxResult)) {
	f.sent = append(f.sent, ip)
	if done != nil {
		done(medium.TxOK)
	}
}

func newDriver(seed int64, cfg Config, tr *trace.Trace) (*simtime.Sim, *Driver, *fakeSTA) {
	sim := simtime.New(seed)
	d := New(sim, cfg, tr)
	sta := &fakeSTA{}
	d.SetSTA(sta)
	return sim, d, sta
}

func icmp(f *packet.Factory) *packet.Packet {
	return f.NewPacket(
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 2), Dst: packet.IP(10, 0, 0, 9)},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1},
		&packet.Payload{Data: make([]byte, 56)},
	)
}

func dataFrameIn(f *packet.Factory) *packet.Packet {
	return f.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData,
			Addr1: packet.MAC(1), Addr2: packet.MAC(0xA9), Addr3: packet.MAC(0xA9)},
		&packet.IPv4{TTL: 60, Protocol: packet.ProtoICMP, Src: packet.IP(10, 0, 0, 9), Dst: packet.IP(192, 168, 1, 2)},
		&packet.ICMP{Type: packet.ICMPEchoReply, ID: 1, Seq: 1},
		&packet.Payload{Data: make([]byte, 56)},
	)
}

// driveSends performs n sends separated by gap and returns dvsend stats.
func driveSends(t *testing.T, cfg Config, n int, gap time.Duration) stats.Sample {
	t.Helper()
	sim, d, _ := newDriver(11, cfg, nil)
	f := &packet.Factory{}
	var step func(i int)
	step = func(i int) {
		if i >= n {
			return
		}
		d.Send(icmp(f), func(medium.TxResult) {
			sim.Post(gap, func() { step(i + 1) })
		})
	}
	// Let the bus state settle to match the gap cadence before sampling.
	sim.Post(gap, func() { step(0) })
	sim.RunUntil(time.Duration(n+2) * (gap + 50*time.Millisecond))
	if len(d.Instr.Send) != n {
		t.Fatalf("collected %d dvsend samples, want %d", len(d.Instr.Send), n)
	}
	return d.Instr.SendSample()
}

// driveRecvs injects n inbound frames separated by gap, returns dvrecv.
func driveRecvs(t *testing.T, cfg Config, n int, gap time.Duration) stats.Sample {
	t.Helper()
	sim, d, _ := newDriver(13, cfg, nil)
	f := &packet.Factory{}
	for i := 0; i < n; i++ {
		sim.PostAt(time.Duration(i+1)*gap, func() { d.HandleFrameFromMAC(dataFrameIn(f)) })
	}
	sim.RunUntil(time.Duration(n+2) * (gap + 50*time.Millisecond))
	if len(d.Instr.Recv) != n {
		t.Fatalf("collected %d dvrecv samples, want %d", len(d.Instr.Recv), n)
	}
	return d.Instr.RecvSample()
}

// The four Table 3 regimes for dvsend on the Nexus 5 (bcmdhd).
func TestDvSendTable3SleepEnabled(t *testing.T) {
	// 10ms interval: bus never sleeps → mean ≈ 0.3ms.
	fast := driveSends(t, Bcmdhd(), 60, 10*time.Millisecond)
	if m := stats.Millis(fast.Mean()); m < 0.1 || m > 0.8 {
		t.Errorf("dvsend mean @10ms = %.3fms, want ≈0.32ms", m)
	}
	// 1s interval: every send pays the SDIO wake → mean ≈ 10ms, max ≤ 14.
	slow := driveSends(t, Bcmdhd(), 60, time.Second)
	if m := stats.Millis(slow.Mean()); m < 8.5 || m > 11.5 {
		t.Errorf("dvsend mean @1s = %.3fms, want ≈10.2ms", m)
	}
	if mx := stats.Millis(slow.Max()); mx > 14 {
		t.Errorf("dvsend max @1s = %.3fms, want ≤ 14ms", mx)
	}
}

func TestDvSendTable3SleepDisabled(t *testing.T) {
	cfg := Bcmdhd()
	cfg.Bus.SleepEnabled = false
	fast := driveSends(t, cfg, 60, 10*time.Millisecond)
	if m := stats.Millis(fast.Mean()); m < 0.1 || m > 0.8 {
		t.Errorf("dvsend mean @10ms disabled = %.3fms, want ≈0.23ms", m)
	}
	// 1s interval without sleep: only the clock ramp remains → ≈0.7ms.
	slow := driveSends(t, cfg, 60, time.Second)
	if m := stats.Millis(slow.Mean()); m < 0.4 || m > 1.2 {
		t.Errorf("dvsend mean @1s disabled = %.3fms, want ≈0.72ms", m)
	}
	if mx := stats.Millis(slow.Max()); mx > 1.6 {
		t.Errorf("dvsend max @1s disabled = %.3fms, want ≈0.86ms", mx)
	}
}

func TestDvRecvTable3(t *testing.T) {
	// 10ms: no wake → mean ≈1.6ms.
	fast := driveRecvs(t, Bcmdhd(), 60, 10*time.Millisecond)
	if m := stats.Millis(fast.Mean()); m < 1.2 || m > 2.2 {
		t.Errorf("dvrecv mean @10ms = %.3fms, want ≈1.6ms", m)
	}
	// 1s: wake adds ~11ms → mean ≈12.7ms, max ≤ ~14.5.
	slow := driveRecvs(t, Bcmdhd(), 60, time.Second)
	if m := stats.Millis(slow.Mean()); m < 11 || m > 14 {
		t.Errorf("dvrecv mean @1s = %.3fms, want ≈12.7ms", m)
	}
	cfg := Bcmdhd()
	cfg.Bus.SleepEnabled = false
	slowDis := driveRecvs(t, cfg, 60, time.Second)
	if m := stats.Millis(slowDis.Mean()); m < 1.2 || m > 2.4 {
		t.Errorf("dvrecv mean @1s disabled = %.3fms, want ≈1.76ms", m)
	}
}

func TestWcnssCheaperThanBcmdhd(t *testing.T) {
	b := driveSends(t, Bcmdhd(), 40, time.Second)
	w := driveSends(t, Wcnss(), 40, time.Second)
	if w.Mean() >= b.Mean() {
		t.Fatalf("wcnss dvsend (%.2fms) should undercut bcmdhd (%.2fms)",
			stats.Millis(w.Mean()), stats.Millis(b.Mean()))
	}
}

func TestSendDeliversToSTAAndRecordsDvsend(t *testing.T) {
	tr := trace.New(0)
	sim, d, sta := newDriver(3, Bcmdhd(), tr)
	f := &packet.Factory{}
	p := icmp(f)
	var result medium.TxResult = -1
	d.Send(p, func(r medium.TxResult) { result = r })
	sim.RunUntil(100 * time.Millisecond)
	if result != medium.TxOK {
		t.Fatalf("result = %v", result)
	}
	if len(sta.sent) != 1 {
		t.Fatalf("sta got %d frames", len(sta.sent))
	}
	// The bus hand-off (dhdsdio_txpkt) comes after dhd_start_xmit.
	if n := len(d.Instr.Send); n != 1 {
		t.Fatalf("%d dvsend records, want 1", n)
	}
	// The sample spans p's dhd_start_xmit to its bus hand-off.
	start, _ := tr.Find("dhd_start_xmit", 0)
	txpkt, _ := tr.Find("dhdsdio_txpkt", 0)
	if r := d.Instr.Send[0]; start.Attrs != fmt.Sprintf("pkt=%d", p.ID) || r.Latency <= 0 || r.Latency != txpkt.At-start.At {
		t.Fatalf("dvsend record %+v from %v to %v: want pkt %d with a positive latency", r, start, txpkt, p.ID)
	}
}

func TestRecvStripsDot11AndRecordsDvrecv(t *testing.T) {
	tr := trace.New(0)
	sim, d, _ := newDriver(4, Bcmdhd(), tr)
	f := &packet.Factory{}
	var got *packet.Packet
	d.SetRecvUp(func(p *packet.Packet) { got = p })
	frame := dataFrameIn(f)
	d.HandleFrameFromMAC(frame)
	sim.RunUntil(100 * time.Millisecond)
	if got == nil {
		t.Fatal("kernel never received the frame")
	}
	if got.Dot11() != nil {
		t.Fatal("802.11 header not stripped")
	}
	// The sample spans the frame's dhdsdio_isr to its rxf enqueue.
	isr, _ := tr.Find("dhdsdio_isr", 0)
	enq, _ := tr.Find("dhd_rxf_enqueue", 0)
	if n := len(d.Instr.Recv); n != 1 || isr.Attrs != fmt.Sprintf("pkt=%d", frame.ID) || d.Instr.Recv[0].Latency != enq.At-isr.At {
		t.Fatalf("dvrecv records %+v from %v to %v: want one for pkt %d", d.Instr.Recv, isr, enq, frame.ID)
	}
}

func TestRxFIFOPreserved(t *testing.T) {
	sim, d, _ := newDriver(5, Bcmdhd(), nil)
	f := &packet.Factory{}
	var order []uint64
	d.SetRecvUp(func(p *packet.Packet) { order = append(order, p.ID) })
	var want []uint64
	for i := 0; i < 10; i++ {
		fr := dataFrameIn(f)
		want = append(want, fr.ID)
		// Inject back-to-back: random readframes latencies must not
		// reorder them.
		sim.PostAt(time.Duration(i)*50*time.Microsecond, func() { d.HandleFrameFromMAC(fr) })
	}
	sim.RunUntil(time.Second)
	if len(order) != 10 {
		t.Fatalf("received %d frames", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rx order %v, want %v", order, want)
		}
	}
}

func TestTraceReproducesFig4CallChain(t *testing.T) {
	tr := trace.New(0)
	sim, d, _ := newDriver(6, Bcmdhd(), tr)
	f := &packet.Factory{}
	sim.PostAt(200*time.Millisecond, func() { d.Send(icmp(f), nil) }) // bus asleep: full chain
	sim.RunUntil(400 * time.Millisecond)
	names := tr.Names()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	chain := []string{"dhd_start_xmit", "dhd_sched_dpc", "dhd_bus_dpc", "dhdsdio_dpc",
		"dhdsdio_bussleep", "dhdsdio_clkctl", "dhdsdio_sendfromq", "dhdsdio_txpkt"}
	prev := -1
	for _, fn := range chain {
		at, ok := idx[fn]
		if !ok {
			t.Fatalf("trace missing %s; have %v", fn, names)
		}
		if at < prev {
			t.Fatalf("call chain out of order at %s", fn)
		}
		prev = at
	}
}

func TestTraceReproducesFig5CallChain(t *testing.T) {
	tr := trace.New(0)
	sim, d, _ := newDriver(7, Bcmdhd(), tr)
	f := &packet.Factory{}
	d.SetRecvUp(func(*packet.Packet) {})
	sim.PostAt(200*time.Millisecond, func() { d.HandleFrameFromMAC(dataFrameIn(f)) })
	sim.RunUntil(400 * time.Millisecond)
	for _, fn := range []string{"dhdsdio_isr", "dhdsdio_readframes", "dhd_rx_frame",
		"dhd_sched_rxf", "dhd_rxf_enqueue", "dhd_rxf_dequeue", "netif_rx_ni"} {
		if _, ok := tr.Find(fn, 0); !ok {
			t.Errorf("trace missing %s", fn)
		}
	}
}

func TestPaidWakeFlag(t *testing.T) {
	tr := trace.New(0)
	sim, d, _ := newDriver(8, Bcmdhd(), tr)
	f := &packet.Factory{}
	d.Send(icmp(f), nil) // bus awake at t=0
	sim.PostAt(500*time.Millisecond, func() { d.Send(icmp(f), nil) })
	sim.RunUntil(time.Second)
	if len(d.Instr.Send) != 2 {
		t.Fatalf("samples = %d", len(d.Instr.Send))
	}
	// dhdsdio_bussleep records whether each send found the bus asleep.
	var paid []string
	for _, e := range tr.Filter("dpc") {
		if e.Name == "dhdsdio_bussleep" {
			paid = append(paid, e.Attrs)
		}
	}
	if len(paid) != 2 {
		t.Fatalf("bussleep records = %v, want one per send", paid)
	}
	if paid[0] != "asleep=false" {
		t.Error("first send (awake bus) flagged as paid wake")
	}
	if paid[1] != "asleep=true" {
		t.Error("second send (asleep bus) not flagged as paid wake")
	}
}

func TestSendWithoutSTAPanics(t *testing.T) {
	sim := simtime.New(1)
	d := New(sim, Bcmdhd(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Send(icmp(&packet.Factory{}), nil)
}
