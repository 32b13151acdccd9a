// Package server implements the wired hosts of the paper's testbed: the
// measurement server the probes target (ICMP echo, TCP SYN/ACK, HTTP),
// the iPerf-style load server, and the wireless load generator that
// congests the WLAN for the §4.3/§4.4 cross-traffic experiments.
package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// switchableDevice lets a stack be constructed before its wire
// attachment exists.
type switchableDevice struct {
	send func(*packet.Packet)
}

// Send implements kernel.Device.
func (d *switchableDevice) Send(p *packet.Packet) {
	if d.send != nil {
		d.send(p)
	}
}

// Measurement is the probe target: it answers ICMP echo in-kernel,
// accepts TCP connections on HTTPPort (answering HTTP GETs), and echoes
// UDP datagrams on UDPEchoPort.
type Measurement struct {
	Stack *kernel.Stack
	dev   *switchableDevice

	// HTTPBody is the response body served for GETs.
	HTTPBody []byte

	// Stats. Atomic because fleet campaigns may wire several simulated
	// phones (each driven by its own worker goroutine) to one shared
	// server instance.
	HTTPRequests atomic.Uint64
	UDPEchoes    atomic.Uint64
}

// Ports used by the measurement server.
const (
	HTTPPort    = 80
	UDPEchoPort = 7
)

// NewMeasurement builds the measurement server.
func NewMeasurement(sim *simtime.Sim, fac *packet.Factory, ip packet.IPv4Addr, tr *trace.Trace) *Measurement {
	dev := &switchableDevice{}
	m := &Measurement{
		Stack:    kernel.New(sim, kernel.ServerConfig(ip), dev, fac, tr),
		dev:      dev,
		HTTPBody: []byte("hello from the measurement server\n"),
	}
	l := m.Stack.Listen(HTTPPort)
	l.OnConn = func(c *kernel.TCPConn) {
		c.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
			if len(payload) >= 4 && string(payload[:4]) == "GET " {
				m.HTTPRequests.Add(1)
				resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(m.HTTPBody))
				c.Send(append([]byte(resp), m.HTTPBody...))
			}
		}
	}
	echo, err := m.Stack.OpenUDP(UDPEchoPort)
	if err != nil {
		panic("server: udp echo bind: " + err.Error())
	}
	echo.SetRecv(func(payload []byte, from packet.IPv4Addr, fromPort uint16, p *packet.Packet, at time.Duration) {
		m.UDPEchoes.Add(1)
		echo.SendTo(from, fromPort, payload, 0)
	})
	return m
}

// Connect wires the server's transmit path (returned by
// wired.Network.AttachHost).
func (m *Measurement) Connect(send func(*packet.Packet)) { m.dev.send = send }

// LoadServer is the iPerf sink: it counts UDP bytes on IperfPort.
type LoadServer struct {
	Stack *kernel.Stack
	dev   *switchableDevice

	ReceivedBytes   uint64
	ReceivedPackets uint64
}

// IperfPort is the iPerf UDP port.
const IperfPort = 5001

// NewLoadServer builds the sink.
func NewLoadServer(sim *simtime.Sim, fac *packet.Factory, ip packet.IPv4Addr, tr *trace.Trace) *LoadServer {
	dev := &switchableDevice{}
	ls := &LoadServer{Stack: kernel.New(sim, kernel.ServerConfig(ip), dev, fac, tr)}
	ls.dev = dev
	sock, err := ls.Stack.OpenUDP(IperfPort)
	if err != nil {
		panic("server: iperf bind: " + err.Error())
	}
	sock.SetRecv(func(payload []byte, from packet.IPv4Addr, fromPort uint16, p *packet.Packet, at time.Duration) {
		ls.ReceivedPackets++
		ls.ReceivedBytes += uint64(len(payload))
	})
	return ls
}

// Connect wires the sink's transmit path.
func (ls *LoadServer) Connect(send func(*packet.Packet)) { ls.dev.send = send }

// LoadGenConfig configures the wireless load generator.
type LoadGenConfig struct {
	IP    packet.IPv4Addr
	MAC   packet.MACAddr
	AID   uint16
	BSSID packet.MACAddr
	// Flows is the number of parallel UDP streams (the paper uses 10).
	Flows int
	// RatePerFlowBps is the offered rate per flow (2.5 Mbps each).
	RatePerFlowBps float64
	// PayloadBytes per datagram (iPerf default 1470).
	PayloadBytes int
	// Target is the load server.
	Target     packet.IPv4Addr
	TargetPort uint16
}

// DefaultLoadGenConfig mirrors §4.3: 10 connections × 2.5 Mbps of
// 1470-byte UDP datagrams, overloading the 802.11g cell.
func DefaultLoadGenConfig() LoadGenConfig {
	return LoadGenConfig{
		Flows:          10,
		RatePerFlowBps: 2.5e6,
		PayloadBytes:   1470,
		TargetPort:     IperfPort,
	}
}

// LoadGen is a wireless station generating cross traffic. Its WNIC is a
// desktop-style adapter: no PSM, no aggressive bus sleep.
type LoadGen struct {
	Stack *kernel.Stack
	STA   *mac.STA
	cfg   LoadGenConfig

	sim     *simtime.Sim
	tickers []*simtime.Ticker
	socks   []*kernel.UDPSocket

	OfferedPackets uint64
	OfferedBytes   uint64
}

// NewLoadGen assembles the load generator and attaches it to the medium.
// Associate it with the AP before starting the load.
func NewLoadGen(sim *simtime.Sim, med *medium.Medium, fac *packet.Factory, cfg LoadGenConfig, tr *trace.Trace) *LoadGen {
	g := &LoadGen{cfg: cfg, sim: sim}
	staCfg := mac.DefaultSTAConfig()
	staCfg.MAC = cfg.MAC
	staCfg.IP = cfg.IP
	staCfg.BSSID = cfg.BSSID
	staCfg.AID = cfg.AID
	staCfg.PSMEnabled = false
	var stack *kernel.Stack
	sta := mac.NewSTA(sim, med, staCfg, fac, tr, func(p *packet.Packet) {
		p.StripOuter(packet.LayerTypeDot11)
		stack.DeliverFromDevice(p)
	})
	stack = kernel.New(sim, kernel.ServerConfig(cfg.IP), kernel.DeviceFunc(func(p *packet.Packet) {
		sta.Send(p, nil)
	}), fac, tr)
	g.Stack = stack
	g.STA = sta
	return g
}

// Start launches the flows. Flow phases are staggered to avoid
// synchronized bursts.
func (g *LoadGen) Start() {
	if len(g.tickers) > 0 {
		return
	}
	interval := time.Duration(float64(g.cfg.PayloadBytes*8) / g.cfg.RatePerFlowBps * float64(time.Second))
	for i := 0; i < g.cfg.Flows; i++ {
		sock, err := g.Stack.OpenUDP(0)
		if err != nil {
			panic("server: loadgen bind: " + err.Error())
		}
		g.socks = append(g.socks, sock)
		offset := time.Duration(i) * interval / time.Duration(g.cfg.Flows)
		payload := make([]byte, g.cfg.PayloadBytes)
		tk := simtime.NewTicker(g.sim, interval, offset, func() {
			g.OfferedPackets++
			g.OfferedBytes += uint64(len(payload))
			sock.SendTo(g.cfg.Target, g.cfg.TargetPort, payload, 0)
		})
		g.tickers = append(g.tickers, tk)
	}
}

// Stop halts all flows.
func (g *LoadGen) Stop() {
	for _, t := range g.tickers {
		t.Stop()
	}
	g.tickers = nil
	for _, s := range g.socks {
		s.Close()
	}
	g.socks = nil
}
