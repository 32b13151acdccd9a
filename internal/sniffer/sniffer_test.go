package sniffer

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func frame(f *packet.Factory) *packet.Packet {
	return f.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData,
			Addr1: packet.MAC(9), Addr2: packet.MAC(1), Addr3: packet.MAC(9)},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 2), Dst: packet.IP(10, 0, 0, 9)},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1},
	)
}

func TestCaptureAndLookup(t *testing.T) {
	sim := simtime.New(1)
	s := New(sim, "A", 0)
	fac := &packet.Factory{}
	p := frame(fac)
	s.CaptureFrame(p, time.Millisecond, 1200*time.Microsecond)
	ts, ok := Merge(s).TimeOf(p.ID)
	if !ok || ts != 1200*time.Microsecond {
		t.Fatalf("TimeOf = %v,%v; want frame end", ts, ok)
	}
	if n := len(s.Records()); n != 1 {
		t.Fatalf("captured = %d", n)
	}
}

func TestLossySnifferMissesFrames(t *testing.T) {
	sim := simtime.New(2)
	s := New(sim, "B", 0.5)
	fac := &packet.Factory{}
	for i := 0; i < 500; i++ {
		s.CaptureFrame(frame(fac), 0, time.Microsecond)
	}
	captured := len(s.Records())
	missed := 500 - captured
	if missed == 0 || captured == 0 {
		t.Fatalf("loss model inert: captured=%d missed=%d", captured, missed)
	}
	ratio := float64(missed) / 500
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("loss ratio = %.2f, want ≈0.5", ratio)
	}
}

func TestMergeUnionsLossySniffers(t *testing.T) {
	sim := simtime.New(3)
	a := New(sim, "A", 0.4)
	b := New(sim, "B", 0.4)
	c := New(sim, "C", 0.4)
	fac := &packet.Factory{}
	var ids []uint64
	for i := 0; i < 300; i++ {
		p := frame(fac)
		ids = append(ids, p.ID)
		end := time.Duration(i) * time.Millisecond
		for _, s := range []*Sniffer{a, b, c} {
			s.CaptureFrame(p.Clone(), end-100*time.Microsecond, end)
		}
	}
	m := Merge(a, b, c)
	// P(all three miss) = 0.4³ = 6.4%: the union must beat any single
	// sniffer decisively.
	if len(m.Records()) <= len(a.Records()) {
		t.Fatalf("merge (%d) no better than single sniffer (%d)", len(m.Records()), len(a.Records()))
	}
	covered := 0
	for _, id := range ids {
		if _, ok := m.TimeOf(id); ok {
			covered++
		}
	}
	if float64(covered)/300 < 0.85 {
		t.Fatalf("merged coverage = %d/300, want >85%%", covered)
	}
}

func TestMergeKeepsEarliestTimestamp(t *testing.T) {
	sim := simtime.New(4)
	a := New(sim, "A", 0)
	b := New(sim, "B", 0)
	fac := &packet.Factory{}
	p := frame(fac)
	a.CaptureFrame(p.Clone(), 0, 5*time.Millisecond)
	b.CaptureFrame(p.Clone(), 0, 3*time.Millisecond) // B heard it earlier
	m := Merge(a, b)
	ts, ok := m.TimeOf(p.ID)
	if !ok || ts != 3*time.Millisecond {
		t.Fatalf("merged ts = %v, want earliest (3ms)", ts)
	}
}

func TestRTTExtraction(t *testing.T) {
	sim := simtime.New(5)
	s := New(sim, "A", 0)
	fac := &packet.Factory{}
	req, resp := frame(fac), frame(fac)
	s.CaptureFrame(req, 10*time.Millisecond, 10100*time.Microsecond)
	s.CaptureFrame(resp, 40*time.Millisecond, 40100*time.Microsecond)
	m := Merge(s)
	dn, ok := m.RTT(req.ID, resp.ID)
	if !ok || dn != 30*time.Millisecond {
		t.Fatalf("dn = %v,%v; want 30ms", dn, ok)
	}
	if _, ok := m.RTT(req.ID, 99999); ok {
		t.Fatal("RTT for missing response should fail")
	}
	if _, ok := m.RTT(resp.ID, req.ID); ok {
		t.Fatal("negative RTT should fail")
	}
}

func TestWritePcapRoundTrips(t *testing.T) {
	sim := simtime.New(6)
	s := New(sim, "A", 0)
	fac := &packet.Factory{}
	for i := 0; i < 5; i++ {
		s.CaptureFrame(frame(fac), time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond+100*time.Microsecond)
	}
	var buf bytes.Buffer
	if err := s.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	linkType, recs, err := packet.ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if linkType != packet.LinkTypeDot11 {
		t.Fatalf("link type = %d", linkType)
	}
	if len(recs) != 5 {
		t.Fatalf("pcap records = %d", len(recs))
	}
	// Every record must decode as a valid 802.11 frame.
	for _, r := range recs {
		if _, err := packet.Decode(r.Data, packet.LayerTypeDot11); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}
