package sniffer

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func echoFrame(fac *packet.Factory, typ uint8, seq uint16) *packet.Packet {
	phone, ap := packet.MAC(1), packet.MAC(9)
	d11 := &packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, ToDS: true, Addr1: ap, Addr2: phone, Addr3: ap}
	src, dst := packet.IP(192, 168, 1, 2), packet.IP(10, 0, 0, 9)
	if typ == packet.ICMPEchoReply {
		d11 = &packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, FromDS: true, Addr1: phone, Addr2: ap, Addr3: ap}
		src, dst = dst, src
	}
	return fac.NewPacket(d11,
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: src, Dst: dst},
		&packet.ICMP{Type: typ, ID: 3, Seq: seq})
}

// lossyCapture feeds three lossy sniffers a shared air schedule of
// echo exchanges, then the two corner cases Merge must order: a reply
// the AP re-sends later under the same packet ID, and two distinct
// frames that share a timestamp.
func lossyCapture(t *testing.T) (sn []*Sniffer, resent, tieA, tieB *packet.Packet, resentAt time.Duration) {
	t.Helper()
	sim := simtime.New(11)
	a, b, c := New(sim, "A", 0.2), New(sim, "B", 0.3), New(sim, "C", 0.4)
	sn = []*Sniffer{a, b, c}
	fac := &packet.Factory{}
	at := time.Duration(0)
	air := func(p *packet.Packet, to ...*Sniffer) {
		at += 500 * time.Microsecond
		for _, s := range to {
			s.CaptureFrame(p, at-100*time.Microsecond, at)
		}
	}
	for i := 0; i < 200; i++ {
		air(echoFrame(fac, packet.ICMPEchoRequest, uint16(i)), a, b, c)
		air(echoFrame(fac, packet.ICMPEchoReply, uint16(i)), a, b, c)
	}
	// Each sniffer was on the air for all 400 frames.
	if len(a.Records()) == 400 || len(b.Records()) == 400 || len(c.Records()) == 400 {
		t.Fatalf("loss model inert: missed %d/%d/%d", 400-len(a.Records()), 400-len(b.Records()), 400-len(c.Records()))
	}
	for _, s := range sn {
		s.LossProb = 0 // the corner cases below are heard as listed
	}
	// The AP's first delivery of a buffered reply reached only C; its
	// re-send under the same ID reached A and B.
	air(echoFrame(fac, packet.ICMPEchoRequest, 900), a, b, c)
	resent = echoFrame(fac, packet.ICMPEchoReply, 900)
	air(resent, c)
	resentAt = at
	air(resent, a, b)
	// Two distinct frames end at the same instant, each heard by one
	// sniffer: C's is passed to Merge last.
	at += 500 * time.Microsecond
	tieA, tieB = echoFrame(fac, packet.ICMPEchoRequest, 901), echoFrame(fac, packet.ICMPEchoRequest, 902)
	c.CaptureFrame(tieB, at-100*time.Microsecond, at)
	b.CaptureFrame(tieA, at-100*time.Microsecond, at)
	return sn, resent, tieA, tieB, resentAt
}

func TestMergeIsTimeOrderedEarliestPerID(t *testing.T) {
	sn, resent, tieA, tieB, resentAt := lossyCapture(t)
	m := Merge(sn...)

	earliest := map[uint64]time.Duration{}
	for _, s := range sn {
		for _, r := range s.Records() {
			if ts, ok := earliest[r.PktID]; !ok || r.Timestamp() < ts {
				earliest[r.PktID] = r.Timestamp()
			}
		}
	}
	recs := m.Records()
	if len(recs) != len(earliest) || len(m.Records()) != len(earliest) {
		t.Fatalf("merged %d records (Count %d), want %d distinct IDs", len(recs), len(m.Records()), len(earliest))
	}
	seen := map[uint64]bool{}
	for i, r := range recs {
		if seen[r.PktID] {
			t.Fatalf("record %d: packet %d merged twice", i, r.PktID)
		}
		seen[r.PktID] = true
		if r.Timestamp() != earliest[r.PktID] {
			t.Fatalf("packet %d merged at %v, want earliest %v", r.PktID, r.Timestamp(), earliest[r.PktID])
		}
		if i > 0 && r.Timestamp() < recs[i-1].Timestamp() {
			t.Fatalf("record %d at %v precedes record %d at %v", i, r.Timestamp(), i-1, recs[i-1].Timestamp())
		}
	}

	// The re-sent reply keeps C's first delivery.
	if ts, ok := m.TimeOf(resent.ID); !ok || ts != resentAt {
		t.Fatalf("re-sent reply merged at %v,%v; want C's first copy at %v", ts, ok, resentAt)
	}

	// Equal timestamps order by the sniffer order passed to Merge.
	n := len(recs)
	if recs[n-2].PktID != tieA.ID || recs[n-1].PktID != tieB.ID {
		t.Fatalf("tie ordered %d,%d; want B's %d before C's %d",
			recs[n-2].PktID, recs[n-1].PktID, tieA.ID, tieB.ID)
	}
	for run := 0; run < 50; run++ {
		if again := Merge(sn...).Records(); !reflect.DeepEqual(again, recs) {
			t.Fatalf("run %d: merge order changed", run)
		}
	}
}

func TestAnalyzeMergedRepeatable(t *testing.T) {
	sn, _, _, _, _ := lossyCapture(t)
	want := AnalyzeMerged(Merge(sn...))
	if len(want.EchoRTTs) == 0 {
		t.Fatal("analysis found no echo RTTs")
	}
	for run := 0; run < 50; run++ {
		if got := AnalyzeMerged(Merge(sn...)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: analysis %s, want %s", run, got, want)
		}
	}
}

// BenchmarkAnalyzeMerged prices one merge plus the time-ordered walk
// over a three-sniffer capture of a few thousand frames; a quadratic
// sort of the merged frames would show here first.
func BenchmarkAnalyzeMerged(b *testing.B) {
	sim := simtime.New(1)
	sn := []*Sniffer{New(sim, "A", 0.03), New(sim, "B", 0.03), New(sim, "C", 0.03)}
	fac := &packet.Factory{}
	for i := 0; i < 2000; i++ {
		end := time.Duration(i+1) * 300 * time.Microsecond
		typ := uint8(packet.ICMPEchoRequest)
		if i%2 == 1 {
			typ = packet.ICMPEchoReply
		}
		p := echoFrame(fac, typ, uint16(i/2))
		for _, s := range sn {
			s.CaptureFrame(p, end-100*time.Microsecond, end)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if an := AnalyzeMerged(Merge(sn...)); an.Frames < 1900 {
			b.Fatalf("analyzed %d frames", an.Frames)
		}
	}
}
