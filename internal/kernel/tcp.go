package kernel

import (
	"time"

	"repro/internal/packet"
)

// TCPState is a (simplified) TCP connection state.
type TCPState int

// Connection states. The mini-stack implements what the paper's probes
// need: three-way handshake, bidirectional data with PSH|ACK, RST for
// closed ports, and FIN teardown without TIME_WAIT bookkeeping.
const (
	TCPClosed TCPState = iota
	TCPSynSent
	TCPSynReceived
	TCPEstablished
	TCPFinSent
)

// String implements fmt.Stringer.
func (s TCPState) String() string {
	switch s {
	case TCPClosed:
		return "closed"
	case TCPSynSent:
		return "syn-sent"
	case TCPSynReceived:
		return "syn-received"
	case TCPEstablished:
		return "established"
	case TCPFinSent:
		return "fin-sent"
	default:
		return "tcp(?)"
	}
}

// TCPConn is one endpoint of a connection.
type TCPConn struct {
	stack      *Stack
	localPort  uint16
	remoteIP   packet.IPv4Addr
	remotePort uint16
	state      TCPState
	sndNxt     uint32
	rcvNxt     uint32

	// OnConnected fires on the client when the SYN-ACK arrives (the
	// connect-RTT measurement point) with the arrival time and the
	// SYN-ACK packet itself.
	OnConnected func(at time.Duration, synAck *packet.Packet)
	// OnData fires for every received data segment.
	OnData func(payload []byte, at time.Duration, p *packet.Packet)
	// OnReset fires when the peer resets the connection (e.g. a closed
	// port, the signal MobiPerf's InetAddress method measures).
	OnReset func(at time.Duration, rst *packet.Packet)
	// OnClosed fires when the peer's FIN completes the teardown.
	OnClosed func(at time.Duration)

	// SynPacket is the transmitted SYN (for capture correlation).
	SynPacket *packet.Packet

	// onEstablished notifies the listener once the server-side handshake
	// completes.
	onEstablished func()
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack *Stack
	port  uint16
	// OnConn fires when a connection completes the handshake
	// (server-side Established).
	OnConn func(c *TCPConn)
}

// Listen binds a TCP listener.
func (s *Stack) Listen(port uint16) *Listener {
	l := &Listener{stack: s, port: port}
	s.listeners[port] = l
	return l
}

// Dial opens a client connection: it allocates an ephemeral port and
// sends the SYN immediately. Completion is reported via OnConnected; set
// the callbacks before the next event-loop turn (the handshake takes at
// least one device round trip, so synchronous assignment is safe).
func (s *Stack) Dial(dst packet.IPv4Addr, dstPort uint16) *TCPConn {
	c := &TCPConn{
		stack:      s,
		localPort:  s.nextEphemeral(),
		remoteIP:   dst,
		remotePort: dstPort,
		state:      TCPSynSent,
		sndNxt:     uint32(s.sim.Rand().Int31()),
	}
	s.tcp[tcpKey{c.localPort, dst, dstPort}] = c
	syn := c.segment(packet.TCPSyn, nil)
	c.SynPacket = syn
	c.sndNxt++ // SYN consumes a sequence number
	s.sendIP(syn)
	return c
}

// segment builds a TCP packet for this connection.
func (c *TCPConn) segment(flags byte, payload []byte) *packet.Packet {
	layers := []packet.Layer{
		&packet.IPv4{TTL: c.stack.cfg.TTL, Protocol: packet.ProtoTCP,
			Src: c.stack.cfg.IP, Dst: c.remoteIP, ID: c.stack.nextIPID()},
		&packet.TCP{SrcPort: c.localPort, DstPort: c.remotePort,
			Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags, Window: 65535},
	}
	if len(payload) > 0 {
		layers = append(layers, &packet.Payload{Data: payload})
	}
	return c.stack.fac.NewPacket(layers...)
}

// Send transmits a data segment (PSH|ACK), e.g. an HTTP request.
func (c *TCPConn) Send(payload []byte) *packet.Packet {
	if c.state != TCPEstablished {
		return nil
	}
	p := c.segment(packet.TCPPsh|packet.TCPAck, payload)
	c.sndNxt += uint32(len(payload))
	c.stack.sendIP(p)
	return p
}

// Close sends a FIN and forgets the connection (no TIME_WAIT modelling).
func (c *TCPConn) Close() {
	if c.state == TCPEstablished || c.state == TCPSynReceived {
		fin := c.segment(packet.TCPFin|packet.TCPAck, nil)
		c.sndNxt++
		c.stack.sendIP(fin)
	}
	c.state = TCPFinSent
	delete(c.stack.tcp, tcpKey{c.localPort, c.remoteIP, c.remotePort})
}

func (s *Stack) demuxTCP(p *packet.Packet) {
	tcp := p.TCP()
	if tcp == nil {
		s.DroppedNoDemux++
		return
	}
	ip := p.IPv4()
	key := tcpKey{tcp.DstPort, ip.Src, tcp.SrcPort}
	if c, ok := s.tcp[key]; ok {
		c.handle(p)
		return
	}
	// New SYN for a listener?
	if tcp.SYN() && !tcp.ACK() {
		if l, ok := s.listeners[tcp.DstPort]; ok {
			l.accept(p)
			return
		}
		// Closed port: RST|ACK, the response MobiPerf's second method
		// relies on.
		s.sendRST(p)
		return
	}
	// Segments to no connection: SYN/FIN/data draw a RST; bare ACKs (the
	// tail of a teardown racing the connection's removal) are absorbed
	// silently, as a TIME_WAIT endpoint would.
	if tcp.RST() {
		return
	}
	if tcp.SYN() || tcp.FIN() || len(p.Payload()) > 0 {
		s.sendRST(p)
		s.DroppedNoDemux++
		return
	}
}

func (s *Stack) sendRST(orig *packet.Packet) {
	t := orig.TCP()
	ip := orig.IPv4()
	ack := t.Seq + 1
	rst := s.fac.NewPacket(
		&packet.IPv4{TTL: s.cfg.TTL, Protocol: packet.ProtoTCP, Src: s.cfg.IP, Dst: ip.Src, ID: s.nextIPID()},
		&packet.TCP{SrcPort: t.DstPort, DstPort: t.SrcPort, Seq: 0, Ack: ack,
			Flags: packet.TCPRst | packet.TCPAck, Window: 0},
	)
	s.sendIP(rst)
}

// accept handles a SYN at a listener: it creates the server-side conn
// and answers SYN|ACK.
func (l *Listener) accept(syn *packet.Packet) {
	s := l.stack
	t := syn.TCP()
	ip := syn.IPv4()
	c := &TCPConn{
		stack:      s,
		localPort:  l.port,
		remoteIP:   ip.Src,
		remotePort: t.SrcPort,
		state:      TCPSynReceived,
		sndNxt:     uint32(s.sim.Rand().Int31()),
		rcvNxt:     t.Seq + 1,
	}
	s.tcp[tcpKey{l.port, ip.Src, t.SrcPort}] = c
	synAck := c.segment(packet.TCPSyn|packet.TCPAck, nil)
	c.sndNxt++
	s.sendIP(synAck)
	// The listener is notified as soon as the handshake completes; see
	// handle() on the ACK.
	c.onEstablished = func() {
		if l.OnConn != nil {
			l.OnConn(c)
		}
	}
}

// handle processes a segment for an existing connection.
func (c *TCPConn) handle(p *packet.Packet) {
	t := p.TCP()
	now := c.stack.sim.Now()
	switch {
	case t.RST():
		c.state = TCPClosed
		delete(c.stack.tcp, tcpKey{c.localPort, c.remoteIP, c.remotePort})
		if c.OnReset != nil {
			c.OnReset(now, p)
		}
		return

	case c.state == TCPSynSent && t.SYN() && t.ACK():
		c.rcvNxt = t.Seq + 1
		c.state = TCPEstablished
		ack := c.segment(packet.TCPAck, nil)
		c.stack.sendIP(ack)
		if c.OnConnected != nil {
			c.OnConnected(now, p)
		}
		return

	case c.state == TCPSynReceived && t.ACK() && !t.SYN():
		c.state = TCPEstablished
		if c.onEstablished != nil {
			c.onEstablished()
		}
		// A piggybacked payload (rare here) falls through to data
		// handling below.
	}

	if t.FIN() {
		c.rcvNxt = t.Seq + 1
		ack := c.segment(packet.TCPAck, nil)
		c.stack.sendIP(ack)
		c.state = TCPClosed
		delete(c.stack.tcp, tcpKey{c.localPort, c.remoteIP, c.remotePort})
		if c.OnClosed != nil {
			c.OnClosed(now)
		}
		return
	}

	if payload := p.Payload(); len(payload) > 0 && c.state == TCPEstablished {
		c.rcvNxt = t.Seq + uint32(len(payload))
		ack := c.segment(packet.TCPAck, nil)
		c.stack.sendIP(ack)
		if c.OnData != nil {
			c.OnData(payload, now, p)
		}
	}
}
