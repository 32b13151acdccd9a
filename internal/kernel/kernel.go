// Package kernel implements a miniature IPv4 network stack used by every
// host in the simulated testbed: the phone (above the WNIC driver), the
// measurement server, the warm-up sink, and the load generator/server.
//
// It provides exactly what the paper's experiments exercise — ICMP echo,
// UDP datagrams with TTL control (AcuteMon's warm-up packets), and
// enough TCP for SYN/SYN-ACK connect probes and single HTTP
// request/response exchanges — plus a bpf tap that timestamps packets at
// dev_queue_xmit and netif_rx, the way the authors run tcpdump on the
// phone to obtain the kernel-level RTT dk (§2.1).
package kernel

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Device is the network interface below the stack. The phone's WNIC
// driver and the wired NIC adapters implement it.
type Device interface {
	Send(ip *packet.Packet)
}

// DeviceFunc adapts a function to the Device interface.
type DeviceFunc func(*packet.Packet)

// Send implements Device.
func (f DeviceFunc) Send(p *packet.Packet) { f(p) }

// Config parameterises a stack instance.
type Config struct {
	IP packet.IPv4Addr
	// SendLatency spans the send syscall to dev_queue_xmit (where bpf
	// stamps outgoing packets).
	SendLatency simtime.Dist
	// RecvLatency spans netif_rx (bpf's incoming stamp) to the receiving
	// socket returning to the application.
	RecvLatency simtime.Dist
	// TTL is the default TTL for generated packets.
	TTL byte
	// EchoLatency is the ICMP echo turn-around cost (the paper cites
	// microsecond-level server processing [24]).
	EchoLatency simtime.Dist
}

// PhoneConfig returns kernel latencies typical of the Android phones.
func PhoneConfig(ip packet.IPv4Addr) Config {
	return Config{
		IP:          ip,
		SendLatency: simtime.Uniform{Lo: 30 * time.Microsecond, Hi: 120 * time.Microsecond},
		RecvLatency: simtime.Uniform{Lo: 40 * time.Microsecond, Hi: 160 * time.Microsecond},
		TTL:         64,
		EchoLatency: simtime.Uniform{Lo: 20 * time.Microsecond, Hi: 60 * time.Microsecond},
	}
}

// ServerConfig returns kernel latencies for the wired desktop hosts.
func ServerConfig(ip packet.IPv4Addr) Config {
	return Config{
		IP:          ip,
		SendLatency: simtime.Uniform{Lo: 5 * time.Microsecond, Hi: 25 * time.Microsecond},
		RecvLatency: simtime.Uniform{Lo: 5 * time.Microsecond, Hi: 30 * time.Microsecond},
		TTL:         64,
		EchoLatency: simtime.Uniform{Lo: 5 * time.Microsecond, Hi: 20 * time.Microsecond},
	}
}

// BPF is the stack's capture tap (tcpdump). It keeps no copy of a
// packet, only the time its ID first crossed the tap: every reader
// needs only that.
type BPF struct {
	enabled bool
	byID    map[uint64]time.Duration
}

// Enable starts capturing.
func (b *BPF) Enable() { b.enabled = true }

// TimeOf returns the capture time of a packet ID.
func (b *BPF) TimeOf(id uint64) (time.Duration, bool) {
	t, ok := b.byID[id]
	return t, ok
}

func (b *BPF) capture(p *packet.Packet, at time.Duration) {
	if !b.enabled {
		return
	}
	if b.byID == nil {
		b.byID = map[uint64]time.Duration{}
	}
	if _, dup := b.byID[p.ID]; !dup {
		b.byID[p.ID] = at
	}
}

// ICMPHandler receives echo replies and errors demuxed by ICMP ID.
type ICMPHandler func(ic *packet.ICMP, p *packet.Packet, at time.Duration)

type tcpKey struct {
	localPort  uint16
	remoteIP   packet.IPv4Addr
	remotePort uint16
}

// Stack is one host's network stack.
type Stack struct {
	sim *simtime.Sim
	cfg Config
	dev Device
	fac *packet.Factory
	tr  *trace.Trace

	bpf       BPF
	icmp      map[uint16]ICMPHandler
	udp       map[uint16]*UDPSocket
	tcp       map[tcpKey]*TCPConn
	listeners map[uint16]*Listener

	ephemeral uint16
	ipID      uint16

	// Stats
	SentPackets, RecvPackets, DroppedNoDemux uint64
}

// New creates a stack bound to the device. tr may be nil. The packet
// factory is shared across the whole simulation so packet IDs stay
// unique; pass the testbed's factory.
func New(sim *simtime.Sim, cfg Config, dev Device, fac *packet.Factory, tr *trace.Trace) *Stack {
	if cfg.TTL == 0 {
		cfg.TTL = 64
	}
	return &Stack{
		sim:       sim,
		cfg:       cfg,
		dev:       dev,
		fac:       fac,
		tr:        tr,
		icmp:      make(map[uint16]ICMPHandler),
		udp:       make(map[uint16]*UDPSocket),
		tcp:       make(map[tcpKey]*TCPConn),
		listeners: make(map[uint16]*Listener),
		ephemeral: 40000,
	}
}

// IP returns the stack's address.
func (s *Stack) IP() packet.IPv4Addr { return s.cfg.IP }

// BPF returns the capture tap.
func (s *Stack) BPF() *BPF { return &s.bpf }

func (s *Stack) sample(d simtime.Dist) time.Duration {
	if d == nil {
		return 0
	}
	return d.Sample(s.sim)
}

func (s *Stack) nextIPID() uint16 {
	s.ipID++
	return s.ipID
}

// sendIP pushes a fully-formed IP packet down: syscall latency, bpf
// stamp at dev_queue_xmit, then the device.
func (s *Stack) sendIP(p *packet.Packet) {
	s.sim.Post(s.sample(s.cfg.SendLatency), func() {
		now := s.sim.Now()
		s.bpf.capture(p, now)
		s.SentPackets++
		s.tr.Addf(now, "kernel", "dev_queue_xmit", "pkt=%d", p.ID)
		s.dev.Send(p)
	})
}

// DeliverFromDevice accepts an inbound IP packet from the device layer
// (netif_rx): bpf stamps it immediately, socket demux happens after the
// kernel receive latency.
func (s *Stack) DeliverFromDevice(p *packet.Packet) {
	now := s.sim.Now()
	s.bpf.capture(p, now)
	s.RecvPackets++
	s.tr.Addf(now, "kernel", "netif_rx", "pkt=%d", p.ID)
	s.sim.Post(s.sample(s.cfg.RecvLatency), func() { s.demux(p) })
}

func (s *Stack) demux(p *packet.Packet) {
	ip := p.IPv4()
	if ip == nil || ip.Dst != s.cfg.IP {
		s.DroppedNoDemux++
		return
	}
	switch ip.Protocol {
	case packet.ProtoICMP:
		s.demuxICMP(p)
	case packet.ProtoUDP:
		s.demuxUDP(p)
	case packet.ProtoTCP:
		s.demuxTCP(p)
	default:
		s.DroppedNoDemux++
	}
}

// --- ICMP ---

// SendEcho transmits an ICMP echo request.
func (s *Stack) SendEcho(dst packet.IPv4Addr, id, seq uint16, payloadLen int) *packet.Packet {
	p := s.fac.NewPacket(
		&packet.IPv4{TTL: s.cfg.TTL, Protocol: packet.ProtoICMP, Src: s.cfg.IP, Dst: dst, ID: s.nextIPID()},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: id, Seq: seq},
		&packet.Payload{Data: make([]byte, payloadLen)},
	)
	s.sendIP(p)
	return p
}

// OnICMP registers a handler for echo replies (and ICMP errors) with the
// given echo identifier.
func (s *Stack) OnICMP(id uint16, fn ICMPHandler) { s.icmp[id] = fn }

// CloseICMP removes an echo handler.
func (s *Stack) CloseICMP(id uint16) { delete(s.icmp, id) }

func (s *Stack) demuxICMP(p *packet.Packet) {
	ic := p.ICMP()
	if ic == nil {
		s.DroppedNoDemux++
		return
	}
	if ic.IsEchoRequest() {
		// Reply in kernel space, as real hosts do.
		s.sim.Post(s.sample(s.cfg.EchoLatency), func() {
			reply := s.fac.NewPacket(
				&packet.IPv4{TTL: s.cfg.TTL, Protocol: packet.ProtoICMP, Src: s.cfg.IP, Dst: p.IPv4().Src, ID: s.nextIPID()},
				&packet.ICMP{Type: packet.ICMPEchoReply, ID: ic.ID, Seq: ic.Seq},
				&packet.Payload{Data: append([]byte(nil), p.Payload()...)},
			)
			s.sendIP(reply)
		})
		return
	}
	if fn, ok := s.icmp[ic.ID]; ok {
		fn(ic, p, s.sim.Now())
		return
	}
	s.DroppedNoDemux++
}

// --- UDP ---

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	stack *Stack
	port  uint16
	// onRecv receives (payload, source ip/port, packet, arrival time).
	onRecv func(payload []byte, from packet.IPv4Addr, fromPort uint16, p *packet.Packet, at time.Duration)
}

// OpenUDP binds a UDP socket; port 0 picks an ephemeral port.
func (s *Stack) OpenUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		port = s.nextEphemeral()
	}
	if _, busy := s.udp[port]; busy {
		return nil, fmt.Errorf("kernel: UDP port %d in use", port)
	}
	sock := &UDPSocket{stack: s, port: port}
	s.udp[port] = sock
	return sock, nil
}

func (s *Stack) nextEphemeral() uint16 {
	for {
		s.ephemeral++
		if s.ephemeral < 40000 {
			s.ephemeral = 40000
		}
		if _, busy := s.udp[s.ephemeral]; busy {
			continue
		}
		return s.ephemeral
	}
}

// SetRecv installs the receive callback.
func (u *UDPSocket) SetRecv(fn func(payload []byte, from packet.IPv4Addr, fromPort uint16, p *packet.Packet, at time.Duration)) {
	u.onRecv = fn
}

// SendTo emits a datagram. ttl=0 uses the stack default; AcuteMon's
// warm-up and background packets pass ttl=1 so the first-hop router
// drops them (§4.1).
func (u *UDPSocket) SendTo(dst packet.IPv4Addr, dstPort uint16, payload []byte, ttl byte) *packet.Packet {
	if ttl == 0 {
		ttl = u.stack.cfg.TTL
	}
	p := u.stack.fac.NewPacket(
		&packet.IPv4{TTL: ttl, Protocol: packet.ProtoUDP, Src: u.stack.cfg.IP, Dst: dst, ID: u.stack.nextIPID()},
		&packet.UDP{SrcPort: u.port, DstPort: dstPort},
		&packet.Payload{Data: payload},
	)
	u.stack.sendIP(p)
	return p
}

// Close unbinds the socket.
func (u *UDPSocket) Close() { delete(u.stack.udp, u.port) }

func (s *Stack) demuxUDP(p *packet.Packet) {
	udp := p.UDP()
	if udp == nil {
		s.DroppedNoDemux++
		return
	}
	sock, ok := s.udp[udp.DstPort]
	if !ok || sock.onRecv == nil {
		s.DroppedNoDemux++
		return
	}
	sock.onRecv(p.Payload(), p.IPv4().Src, udp.SrcPort, p, s.sim.Now())
}
