package packet

import "fmt"

// Dot11Type is the 802.11 frame type (2 bits of the frame control field).
type Dot11Type int

// 802.11 frame types.
const (
	Dot11Management Dot11Type = 0
	Dot11Control    Dot11Type = 1
	Dot11Data       Dot11Type = 2
)

// Dot11 frame subtypes used by the testbed.
const (
	SubtypeBeacon   = 8  // management
	SubtypePSPoll   = 10 // control
	SubtypeData     = 0  // data
	SubtypeNullData = 4  // data, used to announce power-state changes
)

// Dot11 is a (simplified) IEEE 802.11 MAC header. The fields the PSM
// analysis depends on — the power-management bit, the frame subtype, and
// the addresses — are faithful; rarely-used fields are omitted.
type Dot11 struct {
	Type    Dot11Type
	Subtype int
	ToDS    bool
	FromDS  bool
	Retry   bool
	// PwrMgmt is the power-management bit: a station sets it on the last
	// frame before dozing; clearing it announces wake-up. The AP's PS
	// buffering decisions key off this bit (§3.2.2).
	PwrMgmt bool
	// MoreData is set by the AP on buffered frames when more remain.
	MoreData bool
	Duration uint16
	Addr1    MACAddr // receiver
	Addr2    MACAddr // transmitter
	Addr3    MACAddr // BSSID / original src or dst
	Seq      uint16
}

// LayerType implements Layer.
func (*Dot11) LayerType() LayerType { return LayerTypeDot11 }

// HeaderLen implements Layer: 24-byte MAC header plus the 8-byte LLC/SNAP
// header used when the frame carries an IP datagram.
func (d *Dot11) HeaderLen() int {
	switch d.Type {
	case Dot11Control:
		return 16 // PS-Poll/ACK are short control frames
	default:
		return 24 + 8
	}
}

// IsBeacon reports whether the frame is a beacon.
func (d *Dot11) IsBeacon() bool { return d.Type == Dot11Management && d.Subtype == SubtypeBeacon }

// IsNullData reports whether the frame is a null-data (power management
// announcement) frame.
func (d *Dot11) IsNullData() bool { return d.Type == Dot11Data && d.Subtype == SubtypeNullData }

// IsPSPoll reports whether the frame is a PS-Poll.
func (d *Dot11) IsPSPoll() bool { return d.Type == Dot11Control && d.Subtype == SubtypePSPoll }

// String implements fmt.Stringer.
func (d *Dot11) String() string {
	return fmt.Sprintf("802.11{t=%d/%d %s->%s pm=%t}", d.Type, d.Subtype, d.Addr2, d.Addr1, d.PwrMgmt)
}

// Beacon is the body of an 802.11 beacon frame: the timing fields and the
// TIM (traffic indication map) element, which tells dozing stations
// whether the AP holds buffered frames for them.
type Beacon struct {
	// TimestampUS is the AP's TSF timer in microseconds.
	TimestampUS uint64
	// IntervalTU is the beacon interval in time units (1 TU = 1.024 ms);
	// the paper's AP uses 100 TU = 102.4 ms.
	IntervalTU uint16
	// DTIMCount / DTIMPeriod are the TIM element's DTIM fields.
	DTIMCount  uint8
	DTIMPeriod uint8
	// BufferedAIDs lists association IDs with frames buffered at the AP
	// (the partial virtual bitmap, decoded).
	BufferedAIDs []uint16
}

// LayerType implements Layer.
func (*Beacon) LayerType() LayerType { return LayerTypeBeacon }

// HeaderLen implements Layer: 12 fixed bytes (timestamp, interval,
// capability) + 5-byte TIM element header + 1 bitmap byte per 8 AIDs.
func (b *Beacon) HeaderLen() int { return 12 + 5 + b.bitmapLen() }

func (b *Beacon) bitmapLen() int {
	bitmap := 1
	if n := len(b.BufferedAIDs); n > 0 {
		max := uint16(0)
		for _, a := range b.BufferedAIDs {
			if a > max {
				max = a
			}
		}
		bitmap = int(max)/8 + 1
	}
	return bitmap
}

// Buffered reports whether the TIM indicates buffered frames for aid.
func (b *Beacon) Buffered(aid uint16) bool {
	for _, a := range b.BufferedAIDs {
		if a == aid {
			return true
		}
	}
	return false
}

// IPProto is the IPv4 protocol number.
type IPProto byte

// Protocol numbers used in the testbed.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String implements fmt.Stringer.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", byte(p))
	}
}

// IPv4 is an IPv4 header (no options).
type IPv4 struct {
	TOS      byte
	ID       uint16
	TTL      byte
	Protocol IPProto
	Src, Dst IPv4Addr
	// TotalLen is filled during serialization; after decoding it holds
	// the wire value.
	TotalLen uint16
	Checksum uint16
}

// LayerType implements Layer.
func (*IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// HeaderLen implements Layer.
func (*IPv4) HeaderLen() int { return 20 }

// String implements fmt.Stringer.
func (ip *IPv4) String() string {
	return fmt.Sprintf("IPv4{%s->%s %s ttl=%d}", ip.Src, ip.Dst, ip.Protocol, ip.TTL)
}

// ICMP message types used in the testbed.
const (
	ICMPEchoReply    = 0
	ICMPTimeExceeded = 11
	ICMPEchoRequest  = 8
)

// ICMP is an ICMP echo / time-exceeded message.
type ICMP struct {
	Type     byte
	Code     byte
	ID       uint16
	Seq      uint16
	Checksum uint16
}

// LayerType implements Layer.
func (*ICMP) LayerType() LayerType { return LayerTypeICMP }

// HeaderLen implements Layer.
func (*ICMP) HeaderLen() int { return 8 }

// IsEchoRequest reports whether the message is an echo request.
func (i *ICMP) IsEchoRequest() bool { return i.Type == ICMPEchoRequest }

// IsEchoReply reports whether the message is an echo reply.
func (i *ICMP) IsEchoReply() bool { return i.Type == ICMPEchoReply }

// String implements fmt.Stringer.
func (i *ICMP) String() string {
	return fmt.Sprintf("ICMP{type=%d id=%d seq=%d}", i.Type, i.ID, i.Seq)
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // filled during serialization
	Checksum         uint16
}

// LayerType implements Layer.
func (*UDP) LayerType() LayerType { return LayerTypeUDP }

// HeaderLen implements Layer.
func (*UDP) HeaderLen() int { return 8 }

// String implements fmt.Stringer.
func (u *UDP) String() string { return fmt.Sprintf("UDP{%d->%d}", u.SrcPort, u.DstPort) }

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// TCP is a TCP header (no options beyond what the flags encode).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Checksum         uint16
}

// LayerType implements Layer.
func (*TCP) LayerType() LayerType { return LayerTypeTCP }

// HeaderLen implements Layer.
func (*TCP) HeaderLen() int { return 20 }

// SYN reports whether the SYN flag is set.
func (t *TCP) SYN() bool { return t.Flags&TCPSyn != 0 }

// ACK reports whether the ACK flag is set.
func (t *TCP) ACK() bool { return t.Flags&TCPAck != 0 }

// RST reports whether the RST flag is set.
func (t *TCP) RST() bool { return t.Flags&TCPRst != 0 }

// FIN reports whether the FIN flag is set.
func (t *TCP) FIN() bool { return t.Flags&TCPFin != 0 }

// FlagString renders the flag bits in tcpdump style.
func (t *TCP) FlagString() string {
	s := ""
	if t.SYN() {
		s += "S"
	}
	if t.FIN() {
		s += "F"
	}
	if t.RST() {
		s += "R"
	}
	if t.Flags&TCPPsh != 0 {
		s += "P"
	}
	if t.ACK() {
		s += "."
	}
	return s
}

// String implements fmt.Stringer.
func (t *TCP) String() string {
	return fmt.Sprintf("TCP{%d->%d [%s] seq=%d ack=%d}", t.SrcPort, t.DstPort, t.FlagString(), t.Seq, t.Ack)
}

// Payload is opaque application data.
type Payload struct {
	Data []byte
}

// LayerType implements Layer.
func (*Payload) LayerType() LayerType { return LayerTypePayload }

// HeaderLen implements Layer.
func (p *Payload) HeaderLen() int { return len(p.Data) }

// String implements fmt.Stringer.
func (p *Payload) String() string { return fmt.Sprintf("Payload{%dB}", len(p.Data)) }
