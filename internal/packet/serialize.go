package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Internet checksum (RFC 1071): one's-complement sum of 16-bit words.
func checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum folds the TCP/UDP pseudo header into a partial sum used
// by transport checksums.
func pseudoHeader(src, dst IPv4Addr, proto IPProto, length int) []byte {
	ph := make([]byte, 12)
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = byte(proto)
	binary.BigEndian.PutUint16(ph[10:12], uint16(length))
	return ph
}

func transportChecksum(src, dst IPv4Addr, proto IPProto, segment []byte) uint16 {
	buf := append(pseudoHeader(src, dst, proto, len(segment)), segment...)
	return checksum(buf)
}

// llcSNAP is the LLC/SNAP header that precedes an IPv4 datagram inside an
// 802.11 data frame.
var llcSNAP = []byte{0xaa, 0xaa, 0x03, 0x00, 0x00, 0x00, 0x08, 0x00}

// ErrNotSerializable is returned for layer stacks Serialize cannot encode.
var ErrNotSerializable = errors.New("packet: layer stack not serializable")

// Serialize encodes the packet into wire bytes, computing real IPv4,
// ICMP, UDP, and TCP checksums. The layer structs are updated in place
// with the computed checksums and lengths, exactly as a kernel would fill
// them in on transmit.
func Serialize(p *Packet) ([]byte, error) {
	return serializeLayers(p.Layers())
}

func serializeLayers(layers []Layer) ([]byte, error) {
	if len(layers) == 0 {
		return nil, nil
	}
	head, rest := layers[0], layers[1:]

	// The IPv4 checksum needs the enclosing addresses, so transport
	// layers are serialized by the IPv4 case below; reaching them here
	// (e.g. a bare TCP packet) is an error.
	switch l := head.(type) {
	case *Payload:
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: payload must be innermost", ErrNotSerializable)
		}
		return append([]byte(nil), l.Data...), nil

	case *Beacon:
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: beacon must be innermost", ErrNotSerializable)
		}
		return serializeBeacon(l), nil

	case *IPv4:
		return serializeIPv4(l, rest)

	case *Dot11:
		body, err := serializeLayers(rest)
		if err != nil {
			return nil, err
		}
		return serializeDot11(l, rest, body), nil

	default:
		return nil, fmt.Errorf("%w: %s cannot start here", ErrNotSerializable, head.LayerType())
	}
}

func serializeDot11(d *Dot11, inner []Layer, body []byte) []byte {
	fc0 := byte(d.Type)<<2 | byte(d.Subtype)<<4
	var fc1 byte
	if d.ToDS {
		fc1 |= 0x01
	}
	if d.FromDS {
		fc1 |= 0x02
	}
	if d.Retry {
		fc1 |= 0x08
	}
	if d.PwrMgmt {
		fc1 |= 0x10
	}
	if d.MoreData {
		fc1 |= 0x20
	}
	buf := make([]byte, 0, d.HeaderLen()+len(body))
	buf = append(buf, fc0, fc1)
	buf = binary.LittleEndian.AppendUint16(buf, d.Duration)
	buf = append(buf, d.Addr1[:]...)
	buf = append(buf, d.Addr2[:]...)
	if d.Type == Dot11Control {
		return append(buf, body...)
	}
	buf = append(buf, d.Addr3[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, d.Seq<<4)
	// Data frames carrying an IP datagram get an LLC/SNAP header; the
	// HeaderLen accounting includes it unconditionally for data and
	// management frames, so emit padding LLC for non-IP bodies too to
	// keep lengths consistent.
	buf = append(buf, llcSNAP...)
	return append(buf, body...)
}

func serializeBeacon(b *Beacon) []byte {
	buf := make([]byte, 0, b.HeaderLen())
	buf = binary.LittleEndian.AppendUint64(buf, b.TimestampUS)
	buf = binary.LittleEndian.AppendUint16(buf, b.IntervalTU)
	buf = binary.LittleEndian.AppendUint16(buf, 0x0001) // capability: ESS
	bitmapLen := b.bitmapLen()
	buf = append(buf, 5, byte(3+bitmapLen), b.DTIMCount, b.DTIMPeriod, 0)
	bitmap := make([]byte, bitmapLen)
	for _, aid := range b.BufferedAIDs {
		bitmap[aid/8] |= 1 << (aid % 8)
	}
	return append(buf, bitmap...)
}

func serializeIPv4(ip *IPv4, inner []Layer) ([]byte, error) {
	body, err := serializeTransport(ip, inner)
	if err != nil {
		return nil, err
	}
	ip.TotalLen = uint16(20 + len(body))
	hdr := make([]byte, 20)
	hdr[0] = 0x45 // version 4, IHL 5
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], ip.TotalLen)
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	// no fragmentation: flags/offset zero
	hdr[8] = ip.TTL
	hdr[9] = byte(ip.Protocol)
	copy(hdr[12:16], ip.Src[:])
	copy(hdr[16:20], ip.Dst[:])
	ip.Checksum = checksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:12], ip.Checksum)
	return append(hdr, body...), nil
}

func serializeTransport(ip *IPv4, layers []Layer) ([]byte, error) {
	if len(layers) == 0 {
		return nil, nil
	}
	var payload []byte
	if len(layers) > 1 {
		var err error
		payload, err = serializeLayers(layers[1:])
		if err != nil {
			return nil, err
		}
	}
	switch l := layers[0].(type) {
	case *ICMP:
		hdr := make([]byte, 8)
		hdr[0] = l.Type
		hdr[1] = l.Code
		binary.BigEndian.PutUint16(hdr[4:6], l.ID)
		binary.BigEndian.PutUint16(hdr[6:8], l.Seq)
		seg := append(hdr, payload...)
		l.Checksum = checksum(seg)
		binary.BigEndian.PutUint16(seg[2:4], l.Checksum)
		return seg, nil

	case *UDP:
		l.Length = uint16(8 + len(payload))
		hdr := make([]byte, 8)
		binary.BigEndian.PutUint16(hdr[0:2], l.SrcPort)
		binary.BigEndian.PutUint16(hdr[2:4], l.DstPort)
		binary.BigEndian.PutUint16(hdr[4:6], l.Length)
		seg := append(hdr, payload...)
		l.Checksum = transportChecksum(ip.Src, ip.Dst, ProtoUDP, seg)
		binary.BigEndian.PutUint16(seg[6:8], l.Checksum)
		return seg, nil

	case *TCP:
		hdr := make([]byte, 20)
		binary.BigEndian.PutUint16(hdr[0:2], l.SrcPort)
		binary.BigEndian.PutUint16(hdr[2:4], l.DstPort)
		binary.BigEndian.PutUint32(hdr[4:8], l.Seq)
		binary.BigEndian.PutUint32(hdr[8:12], l.Ack)
		hdr[12] = 5 << 4 // data offset: 5 words
		hdr[13] = l.Flags
		binary.BigEndian.PutUint16(hdr[14:16], l.Window)
		seg := append(hdr, payload...)
		l.Checksum = transportChecksum(ip.Src, ip.Dst, ProtoTCP, seg)
		binary.BigEndian.PutUint16(seg[16:18], l.Checksum)
		return seg, nil

	case *Payload:
		if len(layers) != 1 {
			return nil, fmt.Errorf("%w: payload must be innermost", ErrNotSerializable)
		}
		return append([]byte(nil), l.Data...), nil

	default:
		return nil, fmt.Errorf("%w: %s under IPv4", ErrNotSerializable, layers[0].LayerType())
	}
}
