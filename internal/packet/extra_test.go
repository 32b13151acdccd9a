package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The PM bit is the load-bearing field of the whole PSM analysis: it
// must survive serialization bit-exactly in every frame type.
func TestPMBitRoundtrip(t *testing.T) {
	for _, pm := range []bool{false, true} {
		p := New(
			&Dot11{Type: Dot11Data, Subtype: SubtypeNullData, ToDS: true, PwrMgmt: pm,
				Addr1: MAC(9), Addr2: MAC(1), Addr3: MAC(9)},
		)
		data, err := Serialize(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(data, LayerTypeDot11)
		if err != nil {
			t.Fatal(err)
		}
		if q.Dot11().PwrMgmt != pm {
			t.Fatalf("PM bit lost: sent %v", pm)
		}
		if !q.Dot11().IsNullData() {
			t.Fatal("null-data subtype lost")
		}
	}
}

func TestMoreDataAndRetryBitsRoundtrip(t *testing.T) {
	p := New(
		&Dot11{Type: Dot11Data, Subtype: SubtypeData, FromDS: true, MoreData: true, Retry: true,
			Addr1: MAC(1), Addr2: MAC(9), Addr3: MAC(9)},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)},
		&UDP{SrcPort: 5, DstPort: 6},
	)
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data, LayerTypeDot11)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Dot11()
	if !d.MoreData || !d.Retry || !d.FromDS {
		t.Fatalf("flag bits lost: %+v", d)
	}
}

func TestPSPollRoundtrip(t *testing.T) {
	p := New(&Dot11{Type: Dot11Control, Subtype: SubtypePSPoll, Addr1: MAC(9), Addr2: MAC(1)})
	data, err := Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16 {
		t.Fatalf("PS-Poll wire length = %d, want 16", len(data))
	}
	q, err := Decode(data, LayerTypeDot11)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Dot11().IsPSPoll() {
		t.Fatal("PS-Poll subtype lost")
	}
	if q.Dot11().Addr2 != MAC(1) {
		t.Fatal("transmitter address lost")
	}
}

// Property: UDP datagrams round-trip arbitrary ports and payloads.
func TestQuickRoundtripUDP(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		layers := []Layer{
			&IPv4{TTL: 64, Protocol: ProtoUDP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
			&UDP{SrcPort: sp, DstPort: dp},
		}
		if len(payload) > 0 {
			layers = append(layers, &Payload{Data: payload})
		}
		data, err := Serialize(New(layers...))
		if err != nil {
			return false
		}
		q, err := Decode(data, LayerTypeIPv4)
		if err != nil {
			return false
		}
		u := q.UDP()
		return u.SrcPort == sp && u.DstPort == dp && bytes.Equal(q.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every IPv4 packet the simulator can build serializes to a
// header whose checksum verifies.
func TestQuickIPv4ChecksumAlwaysValid(t *testing.T) {
	f := func(tos byte, id uint16, ttl byte, a, b, c, d byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		p := New(
			&IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: ProtoICMP,
				Src: IP(a, b, c, d), Dst: IP(d, c, b, a)},
			&ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 1},
		)
		data, err := Serialize(p)
		if err != nil {
			return false
		}
		_, err = Decode(data, LayerTypeIPv4)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeRejectsBadStacks(t *testing.T) {
	bad := []*Packet{
		New(&Payload{Data: []byte("x")}, &IPv4{}), // payload not innermost
		New(&TCP{}),             // transport without IP context
		New(&Beacon{}, &IPv4{}), // beacon must be innermost
	}
	for i, p := range bad {
		if _, err := Serialize(p); err == nil {
			t.Errorf("stack %d serialized despite being malformed", i)
		}
	}
}
