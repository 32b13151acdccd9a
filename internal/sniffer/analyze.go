package sniffer

import (
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/stats"
)

// Analysis is the result of offline capture inspection — the paper's
// §4.2.1 methodology ("our further analysis of the raw pcap files also
// confirms that no PSM activity can be detected when the smartphone
// receives response packets").
type Analysis struct {
	Frames  int
	Beacons int
	// TIMIndications counts beacons whose TIM announced buffered frames.
	TIMIndications int
	// NullPM1/NullPM0 count power-management null frames by PM bit.
	NullPM1 int
	NullPM0 int
	PSPolls int
	// MoreDataFrames counts buffered deliveries flagged MoreData.
	MoreDataFrames int
	Retries        int

	// EchoRTTs are air-level ICMP echo RTTs (request tx → reply rx).
	EchoRTTs stats.Sample
	// ConnectRTTs are air-level TCP SYN→SYN/ACK RTTs.
	ConnectRTTs stats.Sample
}

// PSMActive reports whether the capture shows any power-save activity:
// dozing announcements, PS-Polls, or TIM-buffered traffic.
func (a *Analysis) PSMActive() bool {
	return a.NullPM1 > 0 || a.PSPolls > 0 || a.TIMIndications > 0 || a.MoreDataFrames > 0
}

// String summarises the analysis.
func (a *Analysis) String() string {
	return fmt.Sprintf("analysis{frames=%d beacons=%d tim=%d null(pm1)=%d pspoll=%d echoRTTs=%d connRTTs=%d psm=%v}",
		a.Frames, a.Beacons, a.TIMIndications, a.NullPM1, a.PSPolls,
		len(a.EchoRTTs), len(a.ConnectRTTs), a.PSMActive())
}

type echoKey struct {
	id, seq uint16
}

type synKey struct {
	srcPort, dstPort uint16
	seq              uint32
}

// analyzer incrementally inspects frames in time order.
type analyzer struct {
	out      Analysis
	echoSent map[echoKey]time.Duration
	synSent  map[synKey]time.Duration
}

func newAnalyzer() *analyzer {
	return &analyzer{
		echoSent: make(map[echoKey]time.Duration),
		synSent:  make(map[synKey]time.Duration),
	}
}

func (a *analyzer) frame(p *packet.Packet, ts time.Duration) {
	d11 := p.Dot11()
	if d11 == nil {
		return
	}
	a.out.Frames++
	if d11.Retry {
		a.out.Retries++
	}
	switch {
	case d11.IsBeacon():
		a.out.Beacons++
		if b := p.Beacon(); b != nil && len(b.BufferedAIDs) > 0 {
			a.out.TIMIndications++
		}
		return
	case d11.IsPSPoll():
		a.out.PSPolls++
		return
	case d11.IsNullData():
		if d11.PwrMgmt {
			a.out.NullPM1++
		} else {
			a.out.NullPM0++
		}
		return
	}
	if d11.MoreData {
		a.out.MoreDataFrames++
	}

	if ic := p.ICMP(); ic != nil {
		k := echoKey{ic.ID, ic.Seq}
		switch {
		case ic.IsEchoRequest():
			if _, dup := a.echoSent[k]; !dup {
				a.echoSent[k] = ts
			}
		case ic.IsEchoReply():
			if t0, ok := a.echoSent[k]; ok && ts > t0 {
				a.out.EchoRTTs = append(a.out.EchoRTTs, ts-t0)
				delete(a.echoSent, k)
			}
		}
		return
	}
	if tc := p.TCP(); tc != nil {
		switch {
		case tc.SYN() && !tc.ACK():
			k := synKey{tc.SrcPort, tc.DstPort, tc.Seq}
			if _, dup := a.synSent[k]; !dup {
				a.synSent[k] = ts
			}
		case tc.SYN() && tc.ACK():
			k := synKey{tc.DstPort, tc.SrcPort, tc.Ack - 1}
			if t0, ok := a.synSent[k]; ok && ts > t0 {
				a.out.ConnectRTTs = append(a.out.ConnectRTTs, ts-t0)
				delete(a.synSent, k)
			}
		}
	}
}

// AnalyzeMerged inspects a merged multi-sniffer capture in time order.
func AnalyzeMerged(m *Merged) *Analysis {
	an := newAnalyzer()
	for _, r := range m.recs {
		an.frame(r.Frame, r.Timestamp())
	}
	out := an.out
	return &out
}

// AnalyzePcap parses a pcap stream (as written by Sniffer.WritePcap) and
// analyzes it — the full offline workflow against on-disk captures.
func AnalyzePcap(r io.Reader) (*Analysis, error) {
	linkType, recs, err := packet.ReadPcap(r)
	if err != nil {
		return nil, err
	}
	if linkType != packet.LinkTypeDot11 {
		return nil, fmt.Errorf("sniffer: pcap link type %d, want 802.11 (%d)", linkType, packet.LinkTypeDot11)
	}
	an := newAnalyzer()
	for _, rec := range recs {
		p, err := packet.Decode(rec.Data, packet.LayerTypeDot11, packet.Default)
		if err != nil {
			// Tolerate undecodable frames, as real analyzers do.
			continue
		}
		an.frame(p, rec.Timestamp)
	}
	out := an.out
	return &out, nil
}
