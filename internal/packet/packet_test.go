package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func icmpEchoPacket() *Packet {
	return New(
		&Dot11{Type: Dot11Data, Subtype: SubtypeData, ToDS: true,
			Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3), Seq: 7},
		&IPv4{TTL: 64, Protocol: ProtoICMP, Src: IP(192, 168, 1, 2), Dst: IP(10, 0, 0, 1), ID: 99},
		&ICMP{Type: ICMPEchoRequest, ID: 0x1234, Seq: 5},
		&Payload{Data: []byte("abcdefgh01234567")},
	)
}

func TestLayerAccessors(t *testing.T) {
	p := icmpEchoPacket()
	if p.Dot11() == nil || p.IPv4() == nil || p.ICMP() == nil {
		t.Fatal("accessors returned nil for present layers")
	}
	if p.UDP() != nil || p.TCP() != nil || p.Beacon() != nil {
		t.Fatal("accessors returned non-nil for absent layers")
	}
	if got := len(p.Payload()); got != 16 {
		t.Fatalf("payload len = %d, want 16", got)
	}
}

func TestLengthMatchesSerializedLen(t *testing.T) {
	packets := []*Packet{
		icmpEchoPacket(),
		New(&Dot11{Type: Dot11Data, Subtype: SubtypeData, Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3)},
			&IPv4{TTL: 1, Protocol: ProtoUDP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8)},
			&UDP{SrcPort: 4000, DstPort: 33434},
			&Payload{Data: []byte("warmup")}),
		New(&Dot11{Type: Dot11Data, Subtype: SubtypeData, Addr1: MAC(1), Addr2: MAC(2), Addr3: MAC(3)},
			&IPv4{TTL: 64, Protocol: ProtoTCP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8)},
			&TCP{SrcPort: 41000, DstPort: 80, Flags: TCPSyn, Window: 65535}),
		New(&Dot11{Type: Dot11Management, Subtype: SubtypeBeacon, Addr1: BroadcastMAC, Addr2: MAC(9), Addr3: MAC(9)},
			&Beacon{IntervalTU: 100, BufferedAIDs: []uint16{1, 9}}),
		New(&Dot11{Type: Dot11Control, Subtype: SubtypePSPoll, Addr1: MAC(9), Addr2: MAC(1)}),
		New(&IPv4{TTL: 64, Protocol: ProtoICMP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)},
			&ICMP{Type: ICMPEchoReply, ID: 1, Seq: 1}),
	}
	for _, p := range packets {
		data, err := Serialize(p)
		if err != nil {
			t.Fatalf("%s: serialize: %v", p, err)
		}
		if len(data) != p.Length() {
			t.Errorf("%s: serialized %dB but Length() = %d", p, len(data), p.Length())
		}
	}
}

func TestRoundtripICMPOverDot11(t *testing.T) {
	p := icmpEchoPacket()
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data, LayerTypeDot11)
	if err != nil {
		t.Fatalf("decode with checksum verification: %v", err)
	}
	d := q.Dot11()
	if d == nil || !d.ToDS || d.Addr2 != MAC(2) || d.Seq != 7 {
		t.Fatalf("dot11 mismatch: %+v", d)
	}
	ip := q.IPv4()
	if ip == nil || ip.Src != IP(192, 168, 1, 2) || ip.TTL != 64 || ip.Protocol != ProtoICMP || ip.ID != 99 {
		t.Fatalf("ipv4 mismatch: %+v", ip)
	}
	ic := q.ICMP()
	if ic == nil || ic.ID != 0x1234 || ic.Seq != 5 || !ic.IsEchoRequest() {
		t.Fatalf("icmp mismatch: %+v", ic)
	}
	if !bytes.Equal(q.Payload(), []byte("abcdefgh01234567")) {
		t.Fatalf("payload mismatch: %q", q.Payload())
	}
}

func TestRoundtripTCP(t *testing.T) {
	p := New(
		&IPv4{TTL: 60, Protocol: ProtoTCP, Src: IP(10, 0, 0, 2), Dst: IP(10, 0, 0, 9)},
		&TCP{SrcPort: 55000, DstPort: 80, Seq: 1e9, Ack: 42, Flags: TCPSyn | TCPAck, Window: 14600},
		&Payload{Data: []byte("GET / HTTP/1.1\r\n\r\n")},
	)
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data, LayerTypeIPv4)
	if err != nil {
		t.Fatal(err)
	}
	tc := q.TCP()
	if tc == nil || tc.Seq != 1e9 || tc.Ack != 42 || !tc.SYN() || !tc.ACK() || tc.Window != 14600 {
		t.Fatalf("tcp mismatch: %+v", tc)
	}
	if string(q.Payload()) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("payload mismatch: %q", q.Payload())
	}
}

func TestRoundtripUDPWithTTL1(t *testing.T) {
	// The AcuteMon warm-up packet: UDP with TTL=1.
	p := New(
		&IPv4{TTL: 1, Protocol: ProtoUDP, Src: IP(192, 168, 1, 2), Dst: IP(8, 8, 8, 8)},
		&UDP{SrcPort: 40000, DstPort: 33434},
		&Payload{Data: []byte{0xde, 0xad}},
	)
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data, LayerTypeIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if q.IPv4().TTL != 1 {
		t.Fatalf("ttl = %d, want 1", q.IPv4().TTL)
	}
	if q.UDP().Length != 10 {
		t.Fatalf("udp length = %d, want 10", q.UDP().Length)
	}
}

func TestRoundtripBeaconTIM(t *testing.T) {
	p := New(
		&Dot11{Type: Dot11Management, Subtype: SubtypeBeacon, Addr1: BroadcastMAC, Addr2: MAC(7), Addr3: MAC(7)},
		&Beacon{TimestampUS: 123456789, IntervalTU: 100, DTIMCount: 1, DTIMPeriod: 2, BufferedAIDs: []uint16{3, 11}},
	)
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data, LayerTypeDot11)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Beacon()
	if b == nil {
		t.Fatal("beacon layer missing after decode")
	}
	if b.TimestampUS != 123456789 || b.IntervalTU != 100 || b.DTIMCount != 1 || b.DTIMPeriod != 2 {
		t.Fatalf("beacon fixed fields mismatch: %+v", b)
	}
	if !b.Buffered(3) || !b.Buffered(11) || b.Buffered(4) {
		t.Fatalf("TIM bitmap mismatch: %v", b.BufferedAIDs)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum ~ = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(data); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestDecodeRejectsCorruptChecksum(t *testing.T) {
	p := icmpEchoPacket()
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the ICMP checksum must catch it.
	data[len(data)-1] ^= 0xff
	if _, err := Decode(data, LayerTypeDot11); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("want ErrBadChecksum, got %v", err)
	}

	// A UDP checksum of 0 means none was sent and decodes; any other
	// wrong value is refused.
	data, err = Serialize(New(
		&IPv4{TTL: 1, Protocol: ProtoUDP, Src: IP(192, 168, 1, 2), Dst: IP(8, 8, 8, 8)},
		&UDP{SrcPort: 40000, DstPort: 33434},
		&Payload{Data: []byte{0xde, 0xad}},
	))
	if err != nil {
		t.Fatal(err)
	}
	data[26], data[27] = 0, 0 // UDP checksum, after the 20-byte IPv4 header
	if _, err := Decode(data, LayerTypeIPv4); err != nil {
		t.Fatalf("UDP checksum 0: %v", err)
	}
	data[27] = 1
	if _, err := Decode(data, LayerTypeIPv4); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("wrong UDP checksum: want ErrBadChecksum, got %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := icmpEchoPacket()
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 15, 25, 40} {
		if n > len(data) {
			continue
		}
		if _, err := Decode(data[:n], LayerTypeDot11); !errors.Is(err, ErrTruncated) {
			t.Errorf("decode of %d bytes: want ErrTruncated, got %v", n, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := icmpEchoPacket()
	p.ID = 77
	c := p.Clone()
	if c.ID != 77 {
		t.Fatalf("clone ID = %d, want 77", c.ID)
	}
	// Mutating the clone must not affect the original.
	c.IPv4().TTL = 1
	c.Payload()[0] = 'Z'
	if p.IPv4().TTL != 64 {
		t.Fatal("clone shares IPv4 layer with original")
	}
	if p.Payload()[0] == 'Z' {
		t.Fatal("clone shares payload bytes with original")
	}
}

func TestPushStripOuter(t *testing.T) {
	p := New(
		&IPv4{TTL: 64, Protocol: ProtoICMP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)},
		&ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 1},
	)
	d := &Dot11{Type: Dot11Data, Subtype: SubtypeData, Addr1: MAC(1), Addr2: MAC(2)}
	p.PushOuter(d)
	if p.Layers()[0].LayerType() != LayerTypeDot11 {
		t.Fatal("PushOuter did not prepend")
	}
	p.StripOuter(LayerTypeDot11)
	if p.Layers()[0].LayerType() != LayerTypeIPv4 {
		t.Fatal("StripOuter did not remove dot11")
	}
	p.StripOuter(LayerTypeDot11) // no-op when head differs
	if len(p.Layers()) != 2 {
		t.Fatal("StripOuter removed a non-matching layer")
	}
}

func TestFactoryAssignsUniqueIDs(t *testing.T) {
	var f Factory
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		p := f.NewPacket(&IPv4{})
		if seen[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestAddrParsing(t *testing.T) {
	if MAC(5).String() != "02:00:00:00:00:05" {
		t.Errorf("MAC(5) = %s", MAC(5))
	}
	if !BroadcastMAC.IsBroadcast() || MAC(1).IsBroadcast() {
		t.Error("IsBroadcast misbehaves")
	}
}

func TestPcapRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf, LinkTypeDot11)
	p := icmpEchoPacket()
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{0, 1500 * time.Microsecond, 2*time.Second + 123*time.Microsecond}
	for _, ts := range times {
		if err := w.WritePacket(ts, data); err != nil {
			t.Fatal(err)
		}
	}
	linkType, recs, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if linkType != LinkTypeDot11 {
		t.Fatalf("linkType = %d, want %d", linkType, LinkTypeDot11)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Timestamp != times[i] {
			t.Errorf("record %d timestamp %v, want %v", i, r.Timestamp, times[i])
		}
		if !bytes.Equal(r.Data, data) {
			t.Errorf("record %d data mismatch", i)
		}
		if _, err := Decode(r.Data, LayerTypeDot11); err != nil {
			t.Errorf("record %d decode: %v", i, err)
		}
	}
}

// Property: ICMP packets round-trip through serialize/decode for
// arbitrary field values.
func TestQuickRoundtripICMP(t *testing.T) {
	f := func(id, seq uint16, ttl byte, payload []byte, echo bool) bool {
		if ttl == 0 {
			ttl = 1
		}
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		typ := byte(ICMPEchoRequest)
		if !echo {
			typ = ICMPEchoReply
		}
		layers := []Layer{
			&IPv4{TTL: ttl, Protocol: ProtoICMP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
			&ICMP{Type: typ, ID: id, Seq: seq},
		}
		if len(payload) > 0 {
			layers = append(layers, &Payload{Data: payload})
		}
		p := New(layers...)
		data, err := Serialize(p)
		if err != nil {
			return false
		}
		q, err := Decode(data, LayerTypeIPv4)
		if err != nil {
			return false
		}
		ic := q.ICMP()
		return ic.ID == id && ic.Seq == seq && q.IPv4().TTL == ttl &&
			bytes.Equal(q.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP packets round-trip for arbitrary flag combinations.
func TestQuickRoundtripTCP(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags byte, win uint16) bool {
		p := New(
			&IPv4{TTL: 64, Protocol: ProtoTCP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
			&TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags & 0x1f, Window: win},
		)
		data, err := Serialize(p)
		if err != nil {
			return false
		}
		q, err := Decode(data, LayerTypeIPv4)
		if err != nil {
			return false
		}
		tc := q.TCP()
		return tc.SrcPort == sp && tc.DstPort == dp && tc.Seq == seq &&
			tc.Ack == ack && tc.Flags == flags&0x1f && tc.Window == win
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: beacon TIM bitmaps round-trip arbitrary AID sets.
func TestQuickRoundtripBeacon(t *testing.T) {
	f := func(aids []uint16) bool {
		seen := map[uint16]bool{}
		var uniq []uint16
		for _, a := range aids {
			a %= 256 // keep bitmaps small
			if !seen[a] {
				seen[a] = true
				uniq = append(uniq, a)
			}
		}
		p := New(
			&Dot11{Type: Dot11Management, Subtype: SubtypeBeacon, Addr1: BroadcastMAC, Addr2: MAC(1), Addr3: MAC(1)},
			&Beacon{IntervalTU: 100, BufferedAIDs: uniq},
		)
		data, err := Serialize(p)
		if err != nil {
			return false
		}
		q, err := Decode(data, LayerTypeDot11)
		if err != nil {
			return false
		}
		b := q.Beacon()
		if len(b.BufferedAIDs) != len(uniq) {
			return false
		}
		for _, a := range uniq {
			if !b.Buffered(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneCopiesWrittenLayersOnly pins Clone's copy-on-write split:
// the layers holders write (802.11, IPv4, payload bytes) are copied,
// the transport and beacon layers are shared, and both copies still
// serialize to the same bytes.
func TestCloneCopiesWrittenLayersOnly(t *testing.T) {
	p := icmpEchoPacket()
	c := p.Clone()
	if c.Dot11() == p.Dot11() || c.IPv4() == p.IPv4() || &c.Payload()[0] == &p.Payload()[0] {
		t.Fatal("clone shares a layer that holders write")
	}
	if c.ICMP() != p.ICMP() {
		t.Fatal("clone copied the read-only ICMP layer")
	}
	b := New(&Dot11{Type: Dot11Management, Subtype: SubtypeBeacon, Addr1: BroadcastMAC},
		&Beacon{IntervalTU: 100, BufferedAIDs: []uint16{1}})
	if b.Clone().Beacon() != b.Beacon() {
		t.Fatal("clone copied the read-only beacon layer")
	}
	pb, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Serialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, cb) {
		t.Fatal("clone serializes differently from its original")
	}
}

// TestPushOuterReusesHeadroom: a packet built from an IP stack takes
// its 802.11 header, and loses and regains it as the AP bridges it,
// without allocating a new layer slice.
func TestPushOuterReusesHeadroom(t *testing.T) {
	p := New(
		&IPv4{TTL: 64, Protocol: ProtoICMP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)},
		&ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 1},
		&Payload{Data: []byte("x")},
	)
	d := &Dot11{Type: Dot11Data, Subtype: SubtypeData, Addr1: MAC(1), Addr2: MAC(2)}
	allocs := testing.AllocsPerRun(100, func() {
		p.PushOuter(d)
		p.StripOuter(LayerTypeDot11)
	})
	if allocs != 0 {
		t.Fatalf("PushOuter/StripOuter allocate %v times per round", allocs)
	}
	// A stack with no headroom left still grows, outermost first.
	p.PushOuter(d)
	p.PushOuter(&Dot11{Seq: 9})
	if l := p.Layers(); len(l) != 5 || l[0].(*Dot11).Seq != 9 || l[1] != Layer(d) || l[4].LayerType() != LayerTypePayload {
		t.Fatalf("layers after growth: %v", p)
	}
}

// TestInlineHeaderSlots: NewIPv4 and PushDot11 build into the packet's
// own header slots, a clone copies into its own, and a stack holding a
// second layer of a slotted type gives that one a layer of its own.
func TestInlineHeaderSlots(t *testing.T) {
	var f Factory
	tcp := &TCP{SrcPort: 1, DstPort: 2, Flags: TCPSyn}
	p := f.NewIPv4(IPv4{TTL: 64, Protocol: ProtoTCP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)}, tcp, []byte("GET"))
	if p.IPv4() != &p.ip || p.TCP() != tcp || string(p.Payload()) != "GET" || p.ID != 1 {
		t.Fatalf("NewIPv4 built %v", p)
	}
	if q := f.NewIPv4(IPv4{Protocol: ProtoTCP}, tcp, nil); len(q.Layers()) != 2 || q.Payload() != nil {
		t.Fatalf("NewIPv4 without data built %v", q)
	}
	p.PushDot11(Dot11{Type: Dot11Data, Addr1: MAC(1)})
	if p.Dot11() != &p.dot11 || p.Dot11().Addr1 != MAC(1) {
		t.Fatal("PushDot11 did not use the packet's 802.11 slot")
	}
	if allocs := testing.AllocsPerRun(100, func() { p.Clone() }); allocs != 2 {
		t.Fatalf("Clone allocates %v times, want 2 (the packet and its payload bytes)", allocs)
	}
	c := p.Clone()
	if c.Dot11() != &c.dot11 || c.IPv4() != &c.ip || c.Layer(LayerTypePayload) != Layer(&c.body) {
		t.Fatal("clone does not hold its headers in its own slots")
	}

	// A second 802.11 header (and, cloned, a second one of each) cannot
	// share the slot the first one holds.
	p.PushDot11(Dot11{Type: Dot11Data, Addr1: MAC(2)})
	outer, inner := p.Layers()[0].(*Dot11), p.Layers()[1].(*Dot11)
	if outer == inner || outer.Addr1 != MAC(2) || inner.Addr1 != MAC(1) {
		t.Fatalf("two 802.11 headers share a slot: %v, %v", outer, inner)
	}
	c = p.Clone()
	if a, b := c.Layers()[0].(*Dot11), c.Layers()[1].(*Dot11); a == b || a.Addr1 != MAC(2) || b.Addr1 != MAC(1) {
		t.Fatalf("clone's two 802.11 headers: %v, %v", a, b)
	}
}
