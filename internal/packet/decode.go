package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
)

// Decode parses wire bytes starting at the given outermost layer type and
// returns a structured packet (ID and ledger zeroed — decoding models a
// capture file reader, not the live simulation path). It verifies the
// IPv4, ICMP, UDP and TCP checksums and fails with ErrBadChecksum on a
// mismatch; a UDP checksum of 0 means none was sent and is accepted.
func Decode(data []byte, first LayerType) (*Packet, error) {
	var layers []Layer
	var err error
	switch first {
	case LayerTypeDot11:
		layers, err = decodeDot11(data)
	case LayerTypeIPv4:
		layers, err = decodeIPv4(data)
	default:
		return nil, fmt.Errorf("packet: cannot decode starting at %s", first)
	}
	if err != nil {
		return nil, err
	}
	return New(layers...), nil
}

func decodeDot11(data []byte) ([]Layer, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: 802.11 header", ErrTruncated)
	}
	d := &Dot11{
		Type:     Dot11Type(data[0] >> 2 & 0x3),
		Subtype:  data[0] >> 4,
		ToDS:     data[1]&0x01 != 0,
		FromDS:   data[1]&0x02 != 0,
		Retry:    data[1]&0x08 != 0,
		PwrMgmt:  data[1]&0x10 != 0,
		MoreData: data[1]&0x20 != 0,
		Duration: binary.LittleEndian.Uint16(data[2:4]),
	}
	copy(d.Addr1[:], data[4:10])
	copy(d.Addr2[:], data[10:16])
	if d.Type == Dot11Control {
		return []Layer{d}, nil
	}
	if len(data) < 24+8 {
		return nil, fmt.Errorf("%w: 802.11 data header", ErrTruncated)
	}
	copy(d.Addr3[:], data[16:22])
	d.Seq = binary.LittleEndian.Uint16(data[22:24]) >> 4
	rest := data[24:]

	if d.IsBeacon() {
		// Beacons carry no LLC; but our serializer emits LLC padding for
		// management frames to keep HeaderLen uniform, so skip it.
		rest = rest[8:]
		b, err := decodeBeacon(rest)
		if err != nil {
			return nil, err
		}
		return []Layer{d, b}, nil
	}

	// LLC/SNAP: only IPv4 (0x0800) is understood.
	if !bytes.Equal(rest[:6], llcSNAP[:6]) {
		return []Layer{d, &Payload{Data: append([]byte(nil), rest...)}}, nil
	}
	ethertype := binary.BigEndian.Uint16(rest[6:8])
	body := rest[8:]
	if ethertype != 0x0800 || len(body) == 0 {
		if len(body) == 0 {
			return []Layer{d}, nil
		}
		return []Layer{d, &Payload{Data: append([]byte(nil), body...)}}, nil
	}
	inner, err := decodeIPv4(body)
	if err != nil {
		return nil, err
	}
	return append([]Layer{d}, inner...), nil
}

func decodeBeacon(data []byte) (*Beacon, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: beacon fixed fields", ErrTruncated)
	}
	b := &Beacon{
		TimestampUS: binary.LittleEndian.Uint64(data[0:8]),
		IntervalTU:  binary.LittleEndian.Uint16(data[8:10]),
	}
	rest := data[12:]
	for len(rest) >= 2 {
		id, l := rest[0], int(rest[1])
		if len(rest) < 2+l {
			return nil, fmt.Errorf("%w: beacon IE", ErrTruncated)
		}
		if id == 5 && l >= 3 { // TIM
			b.DTIMCount = rest[2]
			b.DTIMPeriod = rest[3]
			bitmap := rest[5 : 2+l]
			for i, byt := range bitmap {
				for bit := 0; bit < 8; bit++ {
					if byt&(1<<bit) != 0 {
						b.BufferedAIDs = append(b.BufferedAIDs, uint16(i*8+bit))
					}
				}
			}
		}
		rest = rest[2+l:]
	}
	return b, nil
}

func decodeIPv4(data []byte) ([]Layer, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: IPv4 header", ErrTruncated)
	}
	if data[0]>>4 != 4 {
		return nil, fmt.Errorf("packet: not IPv4 (version %d)", data[0]>>4)
	}
	ihl := int(data[0]&0xf) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, fmt.Errorf("%w: IPv4 options", ErrTruncated)
	}
	ip := &IPv4{
		TOS:      data[1],
		TotalLen: binary.BigEndian.Uint16(data[2:4]),
		ID:       binary.BigEndian.Uint16(data[4:6]),
		TTL:      data[8],
		Protocol: IPProto(data[9]),
		Checksum: binary.BigEndian.Uint16(data[10:12]),
	}
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	hdr := append([]byte(nil), data[:ihl]...)
	hdr[10], hdr[11] = 0, 0
	if checksum(hdr) != ip.Checksum {
		return nil, fmt.Errorf("%w: IPv4", ErrBadChecksum)
	}
	if int(ip.TotalLen) > len(data) {
		return nil, fmt.Errorf("%w: IPv4 total length %d > %d", ErrTruncated, ip.TotalLen, len(data))
	}
	body := data[ihl:ip.TotalLen]

	switch ip.Protocol {
	case ProtoICMP:
		inner, err := decodeICMP(body)
		if err != nil {
			return nil, err
		}
		return append([]Layer{ip}, inner...), nil
	case ProtoUDP:
		inner, err := decodeUDP(ip, body)
		if err != nil {
			return nil, err
		}
		return append([]Layer{ip}, inner...), nil
	case ProtoTCP:
		inner, err := decodeTCP(ip, body)
		if err != nil {
			return nil, err
		}
		return append([]Layer{ip}, inner...), nil
	default:
		if len(body) == 0 {
			return []Layer{ip}, nil
		}
		return []Layer{ip, &Payload{Data: append([]byte(nil), body...)}}, nil
	}
}

func decodeICMP(data []byte) ([]Layer, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: ICMP header", ErrTruncated)
	}
	ic := &ICMP{
		Type:     data[0],
		Code:     data[1],
		Checksum: binary.BigEndian.Uint16(data[2:4]),
		ID:       binary.BigEndian.Uint16(data[4:6]),
		Seq:      binary.BigEndian.Uint16(data[6:8]),
	}
	seg := append([]byte(nil), data...)
	seg[2], seg[3] = 0, 0
	if checksum(seg) != ic.Checksum {
		return nil, fmt.Errorf("%w: ICMP", ErrBadChecksum)
	}
	if len(data) == 8 {
		return []Layer{ic}, nil
	}
	return []Layer{ic, &Payload{Data: append([]byte(nil), data[8:]...)}}, nil
}

func decodeUDP(ip *IPv4, data []byte) ([]Layer, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: UDP header", ErrTruncated)
	}
	u := &UDP{
		SrcPort:  binary.BigEndian.Uint16(data[0:2]),
		DstPort:  binary.BigEndian.Uint16(data[2:4]),
		Length:   binary.BigEndian.Uint16(data[4:6]),
		Checksum: binary.BigEndian.Uint16(data[6:8]),
	}
	if int(u.Length) > len(data) || u.Length < 8 {
		return nil, fmt.Errorf("%w: UDP length", ErrTruncated)
	}
	if u.Checksum != 0 { // 0: the sender computed no checksum
		seg := append([]byte(nil), data[:u.Length]...)
		seg[6], seg[7] = 0, 0
		if transportChecksum(ip.Src, ip.Dst, ProtoUDP, seg) != u.Checksum {
			return nil, fmt.Errorf("%w: UDP", ErrBadChecksum)
		}
	}
	if u.Length == 8 {
		return []Layer{u}, nil
	}
	return []Layer{u, &Payload{Data: append([]byte(nil), data[8:u.Length]...)}}, nil
}

func decodeTCP(ip *IPv4, data []byte) ([]Layer, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: TCP header", ErrTruncated)
	}
	off := int(data[12]>>4) * 4
	if off < 20 || len(data) < off {
		return nil, fmt.Errorf("%w: TCP options", ErrTruncated)
	}
	t := &TCP{
		SrcPort:  binary.BigEndian.Uint16(data[0:2]),
		DstPort:  binary.BigEndian.Uint16(data[2:4]),
		Seq:      binary.BigEndian.Uint32(data[4:8]),
		Ack:      binary.BigEndian.Uint32(data[8:12]),
		Flags:    data[13],
		Window:   binary.BigEndian.Uint16(data[14:16]),
		Checksum: binary.BigEndian.Uint16(data[16:18]),
	}
	seg := append([]byte(nil), data...)
	seg[16], seg[17] = 0, 0
	if transportChecksum(ip.Src, ip.Dst, ProtoTCP, seg) != t.Checksum {
		return nil, fmt.Errorf("%w: TCP", ErrBadChecksum)
	}
	if len(data) == off {
		return []Layer{t}, nil
	}
	return []Layer{t, &Payload{Data: append([]byte(nil), data[off:]...)}}, nil
}
