// Package packet models the frames and datagrams that flow through the
// simulated testbed. The design follows gopacket's layering idiom: a
// Packet is a stack of Layers (802.11 → IPv4 → ICMP/UDP/TCP → payload),
// each Layer knows its LayerType, and packets can be serialized to wire
// bytes and decoded back, checksums included.
//
// A Packet carries no timestamps. Each vantage point of the paper's §2.1
// (Fig. 1) is recorded once, by the tap at that layer:
//   - tou/tiu, the app: tools.ProbeRecord's SentAt and RecvAt;
//   - tok/tik, the kernel (tcpdump): kernel.BPF, read with TimeOf;
//   - tov/tiv, the driver (dvsend/dvrecv): driver.Instrumentation, bare
//     latencies in completion order, not keyed by packet;
//   - ton/tin, the air: the sniffers' captures, unioned by sniffer.Merge.
//
// The app, kernel and air taps are keyed by the packet's ID, and
// testbed.ExtractRTTs and tools.ExtractLayers join them by it.
package packet

import "fmt"

// LayerType identifies a protocol layer, mirroring gopacket.LayerType.
type LayerType int

// The layer types used in the testbed.
const (
	LayerTypeDot11 LayerType = iota + 1
	LayerTypeBeacon
	LayerTypeIPv4
	LayerTypeICMP
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case LayerTypeDot11:
		return "Dot11"
	case LayerTypeBeacon:
		return "Beacon"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeICMP:
		return "ICMP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// Layer is one protocol layer of a packet.
type Layer interface {
	// LayerType returns the layer's type tag.
	LayerType() LayerType
	// HeaderLen returns the serialized length of this layer's header (for
	// Payload, the payload length) in bytes.
	HeaderLen() int
}

// Packet is a stack of layers plus simulation metadata.
type Packet struct {
	// ID is a simulation-unique identifier, assigned by the factory that
	// created the packet. It survives cloning so sniffers can correlate
	// the same frame seen at different taps.
	ID uint64

	// stack[top:] is the layer stack, outermost first. stack is inline
	// unless the packet outgrew it, and the free slots before top let
	// PushOuter prepend without reallocating.
	stack  []Layer
	top    int
	inline [inlineLayers]Layer

	// dot11, ip and body hold the layers a holder writes (see Clone)
	// inside the packet, so cloning or building one allocates no
	// separate header. A slot serves at most one layer of the stack.
	dot11 Dot11
	ip    IPv4
	body  Payload
}

// inlineLayers is how many layers a Packet holds without a separate
// allocation: 802.11 + IPv4 + transport + payload, the deepest stack
// the testbed builds.
const inlineLayers = 4

// New assembles a packet from outermost to innermost layer.
func New(layers ...Layer) *Packet {
	p := &Packet{}
	p.setLayers(layers)
	return p
}

// setLayers copies layers to the tail of the packet's stack, leaving
// the free slots in front for PushOuter.
func (p *Packet) setLayers(layers []Layer) {
	if len(layers) <= inlineLayers {
		p.stack = p.inline[:]
	} else {
		p.stack = make([]Layer, len(layers)+1)
	}
	p.top = len(p.stack) - len(layers)
	copy(p.stack[p.top:], layers)
}

// Layers returns the layer stack, outermost first. The returned slice is
// the packet's own and valid until the next PushOuter; callers must not
// mutate it.
func (p *Packet) Layers() []Layer { return p.stack[p.top:] }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.Layers() {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Dot11 returns the 802.11 header, or nil.
func (p *Packet) Dot11() *Dot11 {
	if l := p.Layer(LayerTypeDot11); l != nil {
		return l.(*Dot11)
	}
	return nil
}

// IPv4 returns the IPv4 header, or nil.
func (p *Packet) IPv4() *IPv4 {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4)
	}
	return nil
}

// ICMP returns the ICMP layer, or nil.
func (p *Packet) ICMP() *ICMP {
	if l := p.Layer(LayerTypeICMP); l != nil {
		return l.(*ICMP)
	}
	return nil
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if l := p.Layer(LayerTypeUDP); l != nil {
		return l.(*UDP)
	}
	return nil
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l.(*TCP)
	}
	return nil
}

// Payload returns the payload bytes, or nil.
func (p *Packet) Payload() []byte {
	if l := p.Layer(LayerTypePayload); l != nil {
		return l.(*Payload).Data
	}
	return nil
}

// Beacon returns the beacon body, or nil.
func (p *Packet) Beacon() *Beacon {
	if l := p.Layer(LayerTypeBeacon); l != nil {
		return l.(*Beacon)
	}
	return nil
}

// Length returns the total serialized length in bytes (the value a
// sniffer would report as the capture length).
func (p *Packet) Length() int {
	n := 0
	for _, l := range p.Layers() {
		n += l.HeaderLen()
	}
	return n
}

// PushOuter prepends a layer (used when the AP re-encapsulates a wired
// packet into an 802.11 frame).
func (p *Packet) PushOuter(l Layer) {
	if p.top == 0 {
		layers := p.Layers()
		p.stack = make([]Layer, len(layers)+inlineLayers)
		p.top = inlineLayers
		copy(p.stack[p.top:], layers)
	}
	p.top--
	p.stack[p.top] = l
}

// PushDot11 prepends a copy of h, held in the packet: the station and
// the AP wrap IP packets this way.
func (p *Packet) PushDot11(h Dot11) {
	d := slot(p, &p.dot11)
	*d = h
	p.PushOuter(d)
}

// slot returns s, one of p's inline layer slots, unless a layer of p's
// stack already is s; then it returns a fresh layer.
func slot[T any, L interface {
	*T
	Layer
}](p *Packet, s L) L {
	for _, x := range p.Layers() {
		if x == Layer(s) {
			return new(T)
		}
	}
	return s
}

// StripOuter removes the outermost layer if it has the given type (used
// when the AP bridges an 802.11 frame onto the wired segment).
func (p *Packet) StripOuter(t LayerType) {
	if p.top < len(p.stack) && p.stack[p.top].LayerType() == t {
		p.top++
	}
}

// Clone returns a copy of p for another holder, preserving the ID so
// sniffers can correlate the same frame seen at different taps.
//
// The copy is copy-on-write by layer. It gets its own layer stack, and
// its own copies of the layers a holder may write after the packet is
// built: the 802.11 header (a forwarding station may set its bits), the
// IPv4 header (routers decrement TTL) and the payload bytes. The
// headers are copied into the clone's own slots, so a clone costs the
// packet and its payload bytes.
// The transport and beacon layers are shared and read-only once built;
// the one writer left, Serialize, recomputes the lengths and checksums
// it stores from the packet at hand every time.
func (p *Packet) Clone() *Packet {
	c := &Packet{ID: p.ID}
	c.setLayers(p.Layers())
	for i := c.top; i < len(c.stack); i++ {
		c.stack[i] = c.own(c.stack[i])
	}
	return c
}

// own returns p's own copy, in its slot, of a layer that holders of a
// packet write; any other layer is returned as is.
func (p *Packet) own(l Layer) Layer {
	switch v := l.(type) {
	case *Dot11:
		d := slot(p, &p.dot11)
		*d = *v
		return d
	case *IPv4:
		ip := slot(p, &p.ip)
		*ip = *v
		return ip
	case *Payload:
		b := slot(p, &p.body)
		b.Data = append([]byte(nil), v.Data...)
		return b
	case *Beacon, *ICMP, *UDP, *TCP:
		return l
	default:
		panic(fmt.Sprintf("packet: cannot clone unknown layer %T", l))
	}
}

// String summarises the packet for debugging and traces.
func (p *Packet) String() string {
	s := fmt.Sprintf("pkt#%d", p.ID)
	for _, l := range p.Layers() {
		s += "/" + l.LayerType().String()
	}
	return s
}

// Factory hands out simulation-unique packet IDs.
type Factory struct{ next uint64 }

// NewPacket assembles a packet and assigns it a fresh ID.
func (f *Factory) NewPacket(layers ...Layer) *Packet {
	f.next++
	p := New(layers...)
	p.ID = f.next
	return p
}

// NewIPv4 assembles an IPv4 datagram with a fresh ID: the header ip,
// the transport layer l4 and, when data is not empty, a payload of
// data. The IPv4 header and the payload layer are held in the packet,
// so the datagram costs the packet and its transport layer.
func (f *Factory) NewIPv4(ip IPv4, l4 Layer, data []byte) *Packet {
	f.next++
	p := &Packet{ID: f.next, ip: ip}
	if len(data) == 0 {
		p.setLayers([]Layer{&p.ip, l4})
	} else {
		p.body.Data = data
		p.setLayers([]Layer{&p.ip, l4, &p.body})
	}
	return p
}
