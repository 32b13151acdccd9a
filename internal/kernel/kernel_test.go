package kernel

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// wire connects two stacks with a fixed one-way latency.
type wire struct {
	sim    *simtime.Sim
	delay  time.Duration
	stacks map[packet.IPv4Addr]*Stack
}

func (w *wire) device() Device {
	return DeviceFunc(func(p *packet.Packet) {
		w.sim.Post(w.delay, func() {
			dst, ok := w.stacks[p.IPv4().Dst]
			if !ok {
				return
			}
			dst.DeliverFromDevice(p)
		})
	})
}

func pair(seed int64) (*simtime.Sim, *Stack, *Stack) {
	sim := simtime.New(seed)
	fac := &packet.Factory{}
	w := &wire{sim: sim, delay: time.Millisecond, stacks: map[packet.IPv4Addr]*Stack{}}
	a := New(sim, PhoneConfig(packet.IP(192, 168, 1, 2)), w.device(), fac, nil)
	b := New(sim, ServerConfig(packet.IP(10, 0, 0, 9)), w.device(), fac, nil)
	w.stacks[a.IP()] = a
	w.stacks[b.IP()] = b
	return sim, a, b
}

func TestICMPEchoRoundTrip(t *testing.T) {
	sim, a, b := pair(1)
	var gotSeq uint16
	var at time.Duration
	a.OnICMP(77, func(ic *packet.ICMP, p *packet.Packet, now time.Duration) {
		gotSeq = ic.Seq
		at = now
	})
	start := sim.Now()
	a.SendEcho(b.IP(), 77, 3, 56)
	sim.RunUntil(100 * time.Millisecond)
	if gotSeq != 3 {
		t.Fatalf("reply seq = %d, want 3", gotSeq)
	}
	rtt := at - start
	if rtt < 2*time.Millisecond || rtt > 4*time.Millisecond {
		t.Fatalf("rtt = %v, want ~2ms wire + small kernel costs", rtt)
	}
}

func TestEchoPayloadPreserved(t *testing.T) {
	sim, a, b := pair(2)
	var got []byte
	a.OnICMP(1, func(ic *packet.ICMP, p *packet.Packet, now time.Duration) { got = p.Payload() })
	p := a.SendEcho(b.IP(), 1, 1, 64)
	if p.Payload() == nil {
		t.Fatal("request payload missing")
	}
	sim.RunUntil(100 * time.Millisecond)
	if len(got) != 64 {
		t.Fatalf("reply payload %dB, want 64", len(got))
	}
}

func TestUDPSendRecv(t *testing.T) {
	sim, a, b := pair(3)
	srv, err := b.OpenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var fromPort uint16
	srv.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		got = payload
		fromPort = fp
		// echo back
		srv.SendTo(from, fp, []byte("pong"), 0)
	})
	cli, err := a.OpenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	cli.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		reply = payload
	})
	cli.SendTo(b.IP(), 9000, []byte("ping"), 0)
	sim.RunUntil(100 * time.Millisecond)
	if string(got) != "ping" {
		t.Fatalf("server got %q", got)
	}
	if fromPort != cli.port {
		t.Fatalf("server saw port %d, want %d", fromPort, cli.port)
	}
	if string(reply) != "pong" {
		t.Fatalf("client got %q", reply)
	}
}

func TestUDPPortInUse(t *testing.T) {
	_, a, _ := pair(4)
	if _, err := a.OpenUDP(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenUDP(5000); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestUDPTTLControl(t *testing.T) {
	_, a, b := pair(5)
	sock, _ := a.OpenUDP(0)
	p := sock.SendTo(b.IP(), 33434, []byte{1}, 1)
	if p.IPv4().TTL != 1 {
		t.Fatalf("ttl = %d, want 1 (warm-up packet)", p.IPv4().TTL)
	}
	q := sock.SendTo(b.IP(), 33434, []byte{1}, 0)
	if q.IPv4().TTL != 64 {
		t.Fatalf("default ttl = %d, want 64", q.IPv4().TTL)
	}
}

func TestTCPHandshake(t *testing.T) {
	sim, a, b := pair(6)
	l := b.Listen(80)
	var serverConn *TCPConn
	l.OnConn = func(c *TCPConn) { serverConn = c }
	var connectedAt time.Duration
	start := sim.Now()
	conn := a.Dial(b.IP(), 80)
	conn.OnConnected = func(at time.Duration, synAck *packet.Packet) { connectedAt = at }
	sim.RunUntil(100 * time.Millisecond)
	if conn.state != TCPEstablished {
		t.Fatalf("client state = %v", conn.state)
	}
	if serverConn == nil || serverConn.state != TCPEstablished {
		t.Fatal("server connection not established")
	}
	rtt := connectedAt - start
	if rtt < 2*time.Millisecond || rtt > 4*time.Millisecond {
		t.Fatalf("connect rtt = %v, want ~2ms", rtt)
	}
	if conn.SynPacket == nil {
		t.Fatal("SYN packet not recorded")
	}
}

func TestTCPDataExchange(t *testing.T) {
	sim, a, b := pair(7)
	l := b.Listen(80)
	l.OnConn = func(c *TCPConn) {
		c.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
			if string(payload[:3]) == "GET" {
				c.Send([]byte("HTTP/1.1 200 OK\r\n\r\nhello"))
			}
		}
	}
	conn := a.Dial(b.IP(), 80)
	var response []byte
	conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
		conn.Send([]byte("GET / HTTP/1.1\r\n\r\n"))
	}
	conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) { response = payload }
	sim.RunUntil(200 * time.Millisecond)
	if string(response) != "HTTP/1.1 200 OK\r\n\r\nhello" {
		t.Fatalf("response = %q", response)
	}
}

func TestTCPRSTOnClosedPort(t *testing.T) {
	sim, a, b := pair(8)
	conn := a.Dial(b.IP(), 81) // nothing listens
	var rstAt time.Duration
	conn.OnReset = func(at time.Duration, rst *packet.Packet) { rstAt = at }
	sim.RunUntil(100 * time.Millisecond)
	if rstAt == 0 {
		t.Fatal("no RST received")
	}
	if conn.state != TCPClosed {
		t.Fatalf("state = %v, want closed", conn.state)
	}
}

func TestTCPTeardown(t *testing.T) {
	sim, a, b := pair(9)
	l := b.Listen(80)
	var serverConn *TCPConn
	l.OnConn = func(c *TCPConn) { serverConn = c }
	conn := a.Dial(b.IP(), 80)
	conn.OnConnected = func(at time.Duration, synAck *packet.Packet) { conn.Close() }
	sim.RunUntil(100 * time.Millisecond)
	if serverConn == nil {
		t.Fatal("no server conn")
	}
	if serverConn.state != TCPClosed {
		t.Fatalf("server state = %v, want closed: it never saw the FIN", serverConn.state)
	}
}

func TestBPFCapturesBothDirections(t *testing.T) {
	sim, a, b := pair(10)
	a.BPF().Enable()
	var reply *packet.Packet
	a.OnICMP(5, func(_ *packet.ICMP, p *packet.Packet, _ time.Duration) { reply = p })
	req := a.SendEcho(b.IP(), 5, 1, 56)
	sim.RunUntil(100 * time.Millisecond)
	if reply == nil {
		t.Fatal("no reply")
	}
	sent, okSent := a.BPF().TimeOf(req.ID)
	recv, okRecv := a.BPF().TimeOf(reply.ID)
	if !okSent || !okRecv {
		t.Fatalf("captured request %v, reply %v; want both", okSent, okRecv)
	}
	if recv <= sent {
		t.Fatal("capture timestamps not ordered")
	}
	// dk = recv - send must be close to wire RTT (2ms) without the
	// user-space latencies.
	dk := recv - sent
	if dk < 2*time.Millisecond || dk > 3500*time.Microsecond {
		t.Fatalf("dk = %v", dk)
	}
}

func TestBPFDisabledCapturesNothing(t *testing.T) {
	sim, a, b := pair(11)
	a.OnICMP(5, func(*packet.ICMP, *packet.Packet, time.Duration) {})
	req := a.SendEcho(b.IP(), 5, 1, 56)
	sim.RunUntil(100 * time.Millisecond)
	if _, ok := a.BPF().TimeOf(req.ID); ok {
		t.Fatal("bpf captured while disabled")
	}
}

func TestUnknownTrafficCounted(t *testing.T) {
	sim, a, b := pair(12)
	b.BPF().Enable()
	other, _ := b.OpenUDP(4243)
	delivered := 0
	other.SetRecv(func([]byte, packet.IPv4Addr, uint16, *packet.Packet, time.Duration) { delivered++ })
	sock, _ := a.OpenUDP(0)
	p := sock.SendTo(b.IP(), 4242, []byte("x"), 0) // no listener on b:4242
	sim.RunUntil(100 * time.Millisecond)
	if _, ok := b.BPF().TimeOf(p.ID); !ok {
		t.Fatal("datagram never reached b's tap")
	}
	if delivered != 0 {
		t.Fatal("datagram for an unbound port handed to another socket")
	}
}

func TestDeterministicHandshakes(t *testing.T) {
	run := func() time.Duration {
		sim, a, b := pair(13)
		b.Listen(80)
		var at time.Duration
		c := a.Dial(b.IP(), 80)
		c.OnConnected = func(t time.Duration, _ *packet.Packet) { at = t }
		sim.RunUntil(50 * time.Millisecond)
		return at
	}
	if run() != run() {
		t.Fatal("handshake time differs across identical runs")
	}
}
