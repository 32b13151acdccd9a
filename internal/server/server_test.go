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
	"repro/internal/wired"
)

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
	sim, srv, client := wireUp(2)
	conn := client.Dial(packet.IP(10, 0, 0, 9), HTTPPort)
	var resp []byte
	conn.OnConnected = func(at time.Duration, p *packet.Packet) {
		conn.Send([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	}
	conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) { resp = payload }
	sim.RunUntil(200 * time.Millisecond)
	if n := srv.HTTPRequests.Load(); n != 1 {
		t.Fatalf("server saw %d requests", n)
	}
	if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK") {
		t.Fatalf("response = %q", resp)
	}
	if !strings.Contains(string(resp), "hello from the measurement server") {
		t.Fatalf("body missing: %q", resp)
	}
}

func TestMeasurementUDPEcho(t *testing.T) {
	sim, srv, client := wireUp(3)
	sock, _ := client.OpenUDP(0)
	var reply []byte
	sock.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		reply = payload
	})
	sock.SendTo(packet.IP(10, 0, 0, 9), UDPEchoPort, []byte("probe"), 0)
	sim.RunUntil(100 * time.Millisecond)
	if string(reply) != "probe" {
		t.Fatalf("echo reply = %q", reply)
	}
	if n := srv.UDPEchoes.Load(); n != 1 {
		t.Fatalf("echoes = %d", n)
	}
}

func TestLoadGeneratorSaturatesCell(t *testing.T) {
	// Full §4.3 cross-traffic rig: wireless load generator → AP →
	// wired load server; offered 25 Mbps, achieved must sit well below.
	sim := simtime.New(4)
	fac := &packet.Factory{}
	med := medium.New(sim, phy.Default80211g(), medium.DefaultOptions())
	apCfg := mac.DefaultAPConfig()
	apCfg.BeaconPhase = 0
	ap := mac.NewAP(sim, med, apCfg, fac, nil)
	net := wired.New(sim, fac, wired.DefaultConfig())
	ap.SetWiredOut(net.FromWLAN)
	net.SetWLAN(ap.WiredDeliver, func(ip packet.IPv4Addr) bool { return ip[0] == 192 })

	ls := NewLoadServer(sim, fac, packet.IP(10, 0, 0, 10), nil)
	ls.Connect(net.AttachHost(ls.Stack, nil, nil))

	cfg := DefaultLoadGenConfig()
	cfg.IP = packet.IP(192, 168, 1, 3)
	cfg.MAC = packet.MAC(3)
	cfg.AID = 2
	cfg.BSSID = apCfg.MAC
	cfg.Target = packet.IP(10, 0, 0, 10)
	gen := NewLoadGen(sim, med, fac, cfg, nil)
	gen.STA.SetBeaconSchedule(ap)
	ap.Associate(cfg.MAC, cfg.AID, cfg.IP, 1)

	gen.Start()
	sim.RunUntil(2 * time.Second)
	gen.Stop()

	if offered := float64(gen.cfg.Flows) * gen.cfg.RatePerFlowBps; offered != 25e6 {
		t.Fatalf("offered = %.1f Mbps", offered/1e6)
	}
	goodput := float64(ls.ReceivedBytes*8) / 2 // over the 2 s run
	// The paper's testbed achieved only ~10 Mbps under this load; our
	// medium lands in the same regime (well below the ~18 Mbps ceiling).
	if goodput < 6e6 || goodput > 18e6 {
		t.Fatalf("goodput = %.1f Mbps, want saturation regime [6,18]", goodput/1e6)
	}
	if gen.OfferedPackets <= ls.ReceivedPackets {
		t.Fatal("no loss despite overload")
	}
	if u := float64(med.Stats.BusyTime) / float64(sim.Now()); u < 0.7 {
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
	gen := NewLoadGen(sim, med, fac, cfg, nil)
	gen.Start()
	gen.Start() // no double-start
	sim.RunUntil(100 * time.Millisecond)
	gen.Stop()
	gen.Stop() // no double-stop panic
	sent := gen.OfferedPackets
	sim.RunUntil(500 * time.Millisecond)
	if gen.OfferedPackets != sent {
		t.Fatal("load generator kept sending after Stop")
	}
}
