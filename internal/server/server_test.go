package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/wired"
)

// sink is a load-server host port that counts what reaches the server
// before handing it on.
type sink struct {
	*kernel.Stack
	packets, bytes int
}

func (s *sink) DeliverFromDevice(p *packet.Packet) {
	s.packets++
	s.bytes += len(p.Payload())
	s.Stack.DeliverFromDevice(p)
}

// airtime sums the time the frames a medium delivers spend on the air.
type airtime struct{ time time.Duration }

func (a *airtime) CaptureFrame(_ *packet.Packet, start, end time.Duration) { a.time += end - start }

// sent counts the packets a stack traced through dev_queue_xmit, up to
// and including at.
func sent(tr *trace.Trace, at time.Duration) int {
	n := 0
	for _, e := range tr.Filter("kernel") {
		if e.Name == "dev_queue_xmit" && e.At <= at {
			n++
		}
	}
	return n
}

// wireUp connects the measurement server and a client stack over a
// wired.Network.
func wireUp(seed int64) (*simtime.Sim, *Measurement, *kernel.Stack) {
	sim := simtime.New(seed)
	fac := &packet.Factory{}
	net := wired.New(sim, fac, wired.DefaultConfig())
	srv := NewMeasurement(sim, fac, packet.IP(10, 0, 0, 9), nil)
	srv.Connect(net.AttachHost(srv.Stack, nil, nil))
	clientDev := &switchableDevice{}
	client := kernel.New(sim, kernel.ServerConfig(packet.IP(10, 0, 0, 2)), clientDev, fac, nil)
	clientDev.send = net.AttachHost(client, nil, nil)
	return sim, srv, client
}

func TestMeasurementICMPEcho(t *testing.T) {
	sim, _, client := wireUp(1)
	var got bool
	client.OnICMP(3, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) { got = true })
	client.SendEcho(packet.IP(10, 0, 0, 9), 3, 1, 56)
	sim.RunUntil(100 * time.Millisecond)
	if !got {
		t.Fatal("no echo reply")
	}
}

func TestMeasurementHTTP(t *testing.T) {
	sim, _, client := wireUp(2)
	conn := client.Dial(packet.IP(10, 0, 0, 9), HTTPPort)
	var resp []byte
	conn.OnConnected = func(at time.Duration, p *packet.Packet) {
		conn.Send([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	}
	responses := 0
	conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
		resp = payload
		responses++
	}
	sim.RunUntil(200 * time.Millisecond)
	if responses != 1 {
		t.Fatalf("server answered %d requests", responses)
	}
	if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK") {
		t.Fatalf("response = %q", resp)
	}
	if !strings.Contains(string(resp), "hello from the measurement server") {
		t.Fatalf("body missing: %q", resp)
	}
}

func TestMeasurementUDPEcho(t *testing.T) {
	sim, _, client := wireUp(3)
	sock, _ := client.OpenUDP(0)
	var reply []byte
	echoes := 0
	sock.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		reply = payload
		echoes++
	})
	sock.SendTo(packet.IP(10, 0, 0, 9), UDPEchoPort, []byte("probe"), 0)
	sim.RunUntil(100 * time.Millisecond)
	if string(reply) != "probe" {
		t.Fatalf("echo reply = %q", reply)
	}
	if echoes != 1 {
		t.Fatalf("echoes = %d", echoes)
	}
}

func TestLoadGeneratorSaturatesCell(t *testing.T) {
	// Full §4.3 cross-traffic rig: wireless load generator → AP →
	// wired load server; offered 25 Mbps, achieved must sit well below.
	sim := simtime.New(4)
	fac := &packet.Factory{}
	med := medium.New(sim, phy.Default80211g(), medium.DefaultOptions())
	air := &airtime{}
	med.AttachTap(air)
	apCfg := mac.DefaultAPConfig()
	apCfg.BeaconPhase = 0
	ap := mac.NewAP(sim, med, apCfg, fac, nil)
	net := wired.New(sim, fac, wired.DefaultConfig())
	ap.SetWiredOut(net.FromWLAN)
	net.SetWLAN(ap.WiredDeliver, func(ip packet.IPv4Addr) bool { return ip[0] == 192 })

	ls := NewLoadServer(sim, fac, packet.IP(10, 0, 0, 10), nil)
	got := &sink{Stack: ls.Stack}
	ls.Connect(net.AttachHost(got, nil, nil))

	cfg := DefaultLoadGenConfig()
	cfg.IP = packet.IP(192, 168, 1, 3)
	cfg.MAC = packet.MAC(3)
	cfg.AID = 2
	cfg.BSSID = apCfg.MAC
	cfg.Target = packet.IP(10, 0, 0, 10)
	genTrace := trace.New(0)
	gen := NewLoadGen(sim, med, fac, cfg, genTrace)
	gen.STA.SetBeaconSchedule(ap)
	ap.Associate(cfg.MAC, cfg.AID, cfg.IP)

	gen.Start()
	sim.RunUntil(2 * time.Second)
	gen.Stop()

	if offered := float64(gen.cfg.Flows) * gen.cfg.RatePerFlowBps; offered != 25e6 {
		t.Fatalf("offered = %.1f Mbps", offered/1e6)
	}
	goodput := float64(got.bytes*8) / 2 // over the 2 s run
	// The paper's testbed achieved only ~10 Mbps under this load; our
	// medium lands in the same regime (well below the ~18 Mbps ceiling).
	if goodput < 6e6 || goodput > 18e6 {
		t.Fatalf("goodput = %.1f Mbps, want saturation regime [6,18]", goodput/1e6)
	}
	if sent(genTrace, sim.Now()) <= got.packets {
		t.Fatal("no loss despite overload")
	}
	// Airtime alone, without the access and ACK overhead of each round.
	if u := float64(air.time) / float64(sim.Now()); u < 0.7 {
		t.Fatalf("medium utilization = %.2f, want saturated", u)
	}
}

func TestLoadGenStartStopIdempotent(t *testing.T) {
	sim := simtime.New(5)
	fac := &packet.Factory{}
	med := medium.New(sim, phy.Default80211g(), medium.DefaultOptions())
	cfg := DefaultLoadGenConfig()
	cfg.IP = packet.IP(192, 168, 1, 3)
	cfg.MAC = packet.MAC(3)
	cfg.Target = packet.IP(10, 0, 0, 10)
	tr := trace.New(0)
	gen := NewLoadGen(sim, med, fac, cfg, tr)
	gen.Start()
	gen.Start() // no double-start
	sim.RunUntil(100 * time.Millisecond)
	gen.Stop()
	gen.Stop() // no double-stop panic
	// A datagram offered before Stop reaches the device within the
	// kernel's send latency (≤ 25 µs).
	before := sent(tr, sim.Now()+25*time.Microsecond)
	sim.RunUntil(500 * time.Millisecond)
	if before == 0 || sent(tr, sim.Now()) != before {
		t.Fatal("load generator kept sending after Stop")
	}
}
