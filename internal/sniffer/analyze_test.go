package sniffer

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// buildCapture synthesises a capture containing one full PSM episode and
// one ICMP exchange.
func buildCapture(t *testing.T) *Sniffer {
	t.Helper()
	sim := simtime.New(1)
	s := New(sim, "A", 0)
	fac := &packet.Factory{}
	phone, ap := packet.MAC(1), packet.MAC(9)

	add := func(ts time.Duration, p *packet.Packet) {
		s.CaptureFrame(p, ts-50*time.Microsecond, ts)
	}
	// Echo request on air at 10ms, reply at 45ms.
	add(10*time.Millisecond, fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, ToDS: true, Addr1: ap, Addr2: phone, Addr3: ap},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 2), Dst: packet.IP(10, 0, 0, 9)},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 1}))
	// Phone dozes at 60ms.
	add(60*time.Millisecond, fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeNullData, ToDS: true, PwrMgmt: true, Addr1: ap, Addr2: phone, Addr3: ap}))
	// Beacon with TIM at 102.4ms.
	add(102400*time.Microsecond, fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Management, Subtype: packet.SubtypeBeacon, Addr1: packet.BroadcastMAC, Addr2: ap, Addr3: ap},
		&packet.Beacon{IntervalTU: 100, BufferedAIDs: []uint16{1}}))
	// PS-Poll at 103ms.
	add(103*time.Millisecond, fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Control, Subtype: packet.SubtypePSPoll, Addr1: ap, Addr2: phone}))
	// Buffered echo reply delivered at 104ms.
	add(104*time.Millisecond, fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, FromDS: true, Addr1: phone, Addr2: ap, Addr3: ap},
		&packet.IPv4{TTL: 63, Protocol: packet.ProtoICMP, Src: packet.IP(10, 0, 0, 9), Dst: packet.IP(192, 168, 1, 2)},
		&packet.ICMP{Type: packet.ICMPEchoReply, ID: 7, Seq: 1}))
	return s
}

func TestAnalyzeCaptureDetectsPSMEpisode(t *testing.T) {
	a := AnalyzeMerged(Merge(buildCapture(t)))
	if !a.PSMActive() {
		t.Fatal("PSM episode not detected")
	}
	if a.NullPM1 != 1 || a.PSPolls != 1 || a.TIMIndications != 1 {
		t.Fatalf("analysis = %s", a)
	}
	if len(a.EchoRTTs) != 1 {
		t.Fatalf("echo RTTs = %d, want 1", len(a.EchoRTTs))
	}
	// 10ms → 104ms: the beacon-delayed RTT.
	if got := a.EchoRTTs[0]; got != 94*time.Millisecond {
		t.Fatalf("echo RTT = %v, want 94ms", got)
	}
}

func TestAnalyzePcapRoundtrip(t *testing.T) {
	s := buildCapture(t)
	var buf bytes.Buffer
	if err := s.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzePcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.PSMActive() || len(a.EchoRTTs) != 1 {
		t.Fatalf("pcap analysis lost information: %s", a)
	}
	if a.Frames != 5 {
		t.Fatalf("frames = %d, want 5", a.Frames)
	}
}

func TestAnalyzePcapRejectsWrongLinkType(t *testing.T) {
	var buf bytes.Buffer
	w := packet.NewPcapWriter(&buf, 101) // LINKTYPE_RAW: raw IP
	if err := w.WritePacket(0, []byte{0x45, 0, 0, 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzePcap(&buf); err == nil {
		t.Fatal("raw-IP pcap accepted as 802.11")
	}
}

func TestAnalyzeTCPConnectRTT(t *testing.T) {
	sim := simtime.New(2)
	s := New(sim, "A", 0)
	fac := &packet.Factory{}
	phone, ap := packet.MAC(1), packet.MAC(9)
	syn := fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, ToDS: true, Addr1: ap, Addr2: phone, Addr3: ap},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: packet.IP(192, 168, 1, 2), Dst: packet.IP(10, 0, 0, 9)},
		&packet.TCP{SrcPort: 40001, DstPort: 80, Seq: 1000, Flags: packet.TCPSyn})
	synAck := fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, FromDS: true, Addr1: phone, Addr2: ap, Addr3: ap},
		&packet.IPv4{TTL: 63, Protocol: packet.ProtoTCP, Src: packet.IP(10, 0, 0, 9), Dst: packet.IP(192, 168, 1, 2)},
		&packet.TCP{SrcPort: 80, DstPort: 40001, Seq: 555, Ack: 1001, Flags: packet.TCPSyn | packet.TCPAck})
	s.CaptureFrame(syn, 0, 5*time.Millisecond)
	s.CaptureFrame(synAck, 0, 36*time.Millisecond)
	a := AnalyzeMerged(Merge(s))
	if len(a.ConnectRTTs) != 1 || a.ConnectRTTs[0] != 31*time.Millisecond {
		t.Fatalf("connect RTTs = %v", a.ConnectRTTs)
	}
	if a.PSMActive() {
		t.Fatal("clean capture flagged as PSM-active")
	}
}

func TestAnalyzeMergedOrdersFrames(t *testing.T) {
	sim := simtime.New(3)
	a := New(sim, "A", 0)
	b := New(sim, "B", 0)
	fac := &packet.Factory{}
	phone, ap := packet.MAC(1), packet.MAC(9)
	req := fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, ToDS: true, Addr1: ap, Addr2: phone, Addr3: ap},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: packet.IP(192, 168, 1, 2), Dst: packet.IP(10, 0, 0, 9)},
		&packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1})
	rep := fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Data, Subtype: packet.SubtypeData, FromDS: true, Addr1: phone, Addr2: ap, Addr3: ap},
		&packet.IPv4{TTL: 63, Protocol: packet.ProtoICMP, Src: packet.IP(10, 0, 0, 9), Dst: packet.IP(192, 168, 1, 2)},
		&packet.ICMP{Type: packet.ICMPEchoReply, ID: 1, Seq: 1})
	// Sniffer A missed the request; B heard both.
	b.CaptureFrame(req.Clone(), 0, 10*time.Millisecond)
	a.CaptureFrame(rep.Clone(), 0, 40*time.Millisecond)
	b.CaptureFrame(rep.Clone(), 0, 41*time.Millisecond) // later copy, dedup keeps A's
	an := AnalyzeMerged(Merge(a, b))
	if len(an.EchoRTTs) != 1 || an.EchoRTTs[0] != 30*time.Millisecond {
		t.Fatalf("merged echo RTTs = %v, want [30ms]", an.EchoRTTs)
	}
}

// End-to-end check against Table 5's methodology lives in the
// experiments package; here we confirm the stats plumbing.
func TestAnalysisStatsUsable(t *testing.T) {
	a := AnalyzeMerged(Merge(buildCapture(t)))
	var s stats.Sample = a.EchoRTTs
	if s.Mean() == 0 {
		t.Fatal("sample not usable")
	}
	if a.String() == "" {
		t.Fatal("empty string form")
	}
}
