package wired

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

type fakeNode struct {
	ip    packet.IPv4Addr
	got   []*packet.Packet
	gotAt []time.Duration
	sim   *simtime.Sim
}

func (f *fakeNode) IP() packet.IPv4Addr { return f.ip }
func (f *fakeNode) DeliverFromDevice(p *packet.Packet) {
	f.got = append(f.got, p)
	f.gotAt = append(f.gotAt, f.sim.Now())
}

func udpPacket(fac *packet.Factory, src, dst packet.IPv4Addr, ttl byte) *packet.Packet {
	return fac.NewPacket(
		&packet.IPv4{TTL: ttl, Protocol: packet.ProtoUDP, Src: src, Dst: dst},
		&packet.UDP{SrcPort: 1000, DstPort: 2000},
		&packet.Payload{Data: []byte("x")},
	)
}

func setup(seed int64, cfg Config) (*simtime.Sim, *Network, *packet.Factory) {
	sim := simtime.New(seed)
	fac := &packet.Factory{}
	return sim, New(sim, fac, cfg), fac
}

func TestHostToHostForwarding(t *testing.T) {
	sim, n, fac := setup(1, DefaultConfig())
	a := &fakeNode{ip: packet.IP(10, 0, 0, 1), sim: sim}
	b := &fakeNode{ip: packet.IP(10, 0, 0, 2), sim: sim}
	sendA := n.AttachHost(a, nil, nil)
	n.AttachHost(b, nil, nil)
	sendA(udpPacket(fac, a.ip, b.ip, 64))
	sim.RunUntil(10 * time.Millisecond)
	if len(b.got) != 1 {
		t.Fatalf("b received %d packets", len(b.got))
	}
	if len(a.got) != 0 {
		t.Fatal("sender received its own packet")
	}
	if n.Stats.Forwarded.Load() != 1 {
		t.Fatalf("forwarded = %d", n.Stats.Forwarded.Load())
	}
}

func TestNetemDelayOnServerPort(t *testing.T) {
	// Emulate `tc` adding 15ms each way on the server port: RTT +30ms.
	sim, n, fac := setup(2, DefaultConfig())
	phoneSide := &fakeNode{ip: packet.IP(10, 0, 0, 1), sim: sim}
	server := &fakeNode{ip: packet.IP(10, 0, 0, 9), sim: sim}
	send := n.AttachHost(phoneSide, nil, nil)
	n.AttachHost(server, simtime.Const(15*time.Millisecond), simtime.Const(15*time.Millisecond))
	start := sim.Now()
	send(udpPacket(fac, phoneSide.ip, server.ip, 64))
	sim.RunUntil(100 * time.Millisecond)
	if len(server.got) != 1 {
		t.Fatalf("server received %d", len(server.got))
	}
	oneWay := server.gotAt[0] - start
	if oneWay < 15*time.Millisecond || oneWay > 16*time.Millisecond {
		t.Fatalf("one-way = %v, want ~15ms", oneWay)
	}
}

func TestTTLDecrementAcrossGateway(t *testing.T) {
	sim, n, fac := setup(3, DefaultConfig())
	server := &fakeNode{ip: packet.IP(10, 0, 0, 9), sim: sim}
	n.AttachHost(server, nil, nil)
	p := udpPacket(fac, packet.IP(192, 168, 1, 2), server.ip, 64)
	n.FromWLAN(p)
	sim.RunUntil(10 * time.Millisecond)
	if len(server.got) != 1 {
		t.Fatal("packet not forwarded")
	}
	if server.got[0].IPv4().TTL != 63 {
		t.Fatalf("ttl = %d, want 63", server.got[0].IPv4().TTL)
	}
}

func TestTTL1DroppedAtGateway(t *testing.T) {
	// The AcuteMon warm-up packet: TTL=1, dropped at the first hop.
	sim, n, fac := setup(4, DefaultConfig())
	server := &fakeNode{ip: packet.IP(10, 0, 0, 9), sim: sim}
	n.AttachHost(server, nil, nil)
	n.FromWLAN(udpPacket(fac, packet.IP(192, 168, 1, 2), server.ip, 1))
	sim.RunUntil(10 * time.Millisecond)
	if len(server.got) != 0 {
		t.Fatal("TTL=1 packet crossed the gateway")
	}
	if f := n.Stats.Forwarded.Load(); f != 0 {
		t.Fatalf("forwarded = %d, want the packet dropped", f)
	}
}

func TestWiredToWLANRouting(t *testing.T) {
	sim, n, fac := setup(5, DefaultConfig())
	server := &fakeNode{ip: packet.IP(10, 0, 0, 9), sim: sim}
	send := n.AttachHost(server, nil, nil)
	var toWLAN []*packet.Packet
	n.SetWLAN(func(p *packet.Packet) { toWLAN = append(toWLAN, p) },
		func(ip packet.IPv4Addr) bool { return ip[0] == 192 })
	send(udpPacket(fac, server.ip, packet.IP(192, 168, 1, 2), 64))
	sim.RunUntil(10 * time.Millisecond)
	if len(toWLAN) != 1 {
		t.Fatalf("wlan side got %d packets", len(toWLAN))
	}
	if toWLAN[0].IPv4().TTL != 63 {
		t.Fatalf("downlink ttl = %d, want 63", toWLAN[0].IPv4().TTL)
	}
}

func TestNoRouteDropped(t *testing.T) {
	sim, n, fac := setup(6, DefaultConfig())
	server := &fakeNode{ip: packet.IP(10, 0, 0, 9), sim: sim}
	send := n.AttachHost(server, nil, nil)
	send(udpPacket(fac, server.ip, packet.IP(203, 0, 113, 5), 64))
	sim.RunUntil(10 * time.Millisecond)
	if len(server.got) != 0 || n.Stats.Forwarded.Load() != 0 {
		t.Fatalf("no-route packet went somewhere: server got %d, forwarded %d", len(server.got), n.Stats.Forwarded.Load())
	}
}

func TestTimeExceededReplyRateLimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeExceededReply = true
	sim, n, fac := setup(7, cfg)
	var toWLAN []*packet.Packet
	n.SetWLAN(func(p *packet.Packet) { toWLAN = append(toWLAN, p) },
		func(ip packet.IPv4Addr) bool { return ip[0] == 192 })
	// 50 TTL-expired packets within a second: only one ICMP error.
	for i := 0; i < 50; i++ {
		sim.Post(time.Duration(i)*20*time.Millisecond, func() {
			n.FromWLAN(udpPacket(fac, packet.IP(192, 168, 1, 2), packet.IP(10, 0, 0, 9), 1))
		})
	}
	sim.RunUntil(990 * time.Millisecond)
	if len(toWLAN) != 1 {
		t.Fatalf("time-exceeded sent %d, want 1 (rate limit)", len(toWLAN))
	}
	ic := toWLAN[0].ICMP()
	if ic == nil || ic.Type != packet.ICMPTimeExceeded {
		t.Fatal("reply is not ICMP time-exceeded")
	}
	// After the rate-limit window another error may flow.
	sim.RunUntil(3 * time.Second)
	n.FromWLAN(udpPacket(fac, packet.IP(192, 168, 1, 2), packet.IP(10, 0, 0, 9), 1))
	sim.RunUntil(4 * time.Second)
	if len(toWLAN) != 2 {
		t.Fatalf("time-exceeded after window = %d, want 2", len(toWLAN))
	}
	if ic := toWLAN[1].ICMP(); ic == nil || ic.Type != packet.ICMPTimeExceeded {
		t.Fatal("second reply is not ICMP time-exceeded")
	}
}

func TestTimeExceededDisabledByDefault(t *testing.T) {
	sim, n, fac := setup(8, DefaultConfig())
	var toWLAN []*packet.Packet
	n.SetWLAN(func(p *packet.Packet) { toWLAN = append(toWLAN, p) },
		func(ip packet.IPv4Addr) bool { return ip[0] == 192 })
	n.FromWLAN(udpPacket(fac, packet.IP(192, 168, 1, 2), packet.IP(10, 0, 0, 9), 1))
	sim.RunUntil(time.Second)
	if len(toWLAN) != 0 {
		t.Fatal("time-exceeded sent despite being disabled")
	}
}
