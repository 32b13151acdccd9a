// Package sniffer implements the external wireless sniffers of the
// paper's testbed (§2.2): promiscuous captures of every frame on the
// air, per-sniffer loss, the multi-sniffer merge that motivates using
// three of them, and the dn (network-level RTT) extraction used in
// Tables 2 and 5.
package sniffer

import (
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// Record is one captured frame.
type Record struct {
	PktID uint64
	// AirEnd is when the frame left the air; Timestamp is the value a
	// pcap would carry (end of frame, like a real capture).
	AirEnd time.Duration
	Frame  *packet.Packet
}

// Timestamp returns the capture timestamp.
func (r Record) Timestamp() time.Duration { return r.AirEnd }

// Sniffer is a promiscuous observer attached to the medium as a tap.
type Sniffer struct {
	Name string
	// LossProb is the probability of missing any given frame (real
	// sniffers drop frames under load; this is why the testbed runs
	// three of them).
	LossProb float64

	sim     *simtime.Sim
	records []Record
}

// New creates a sniffer.
func New(sim *simtime.Sim, name string, lossProb float64) *Sniffer {
	return &Sniffer{Name: name, LossProb: lossProb, sim: sim}
}

// CaptureFrame implements medium.Tap. The frame is the medium's shared
// read-only copy; the sniffer keeps the pointer without copying it.
func (s *Sniffer) CaptureFrame(p *packet.Packet, _, airEnd time.Duration) {
	if s.LossProb > 0 && s.sim.Rand().Float64() < s.LossProb {
		return
	}
	s.records = append(s.records, Record{PktID: p.ID, AirEnd: airEnd, Frame: p})
}

// Records returns all captures in capture order, which is also
// timestamp order: the medium hands a frame to its taps at the end of
// its airtime.
func (s *Sniffer) Records() []Record { return s.records }

// WritePcap serializes the capture into classic pcap format (802.11
// link type) so it can be inspected with tcpdump/Wireshark.
func (s *Sniffer) WritePcap(w io.Writer) error {
	pw := packet.NewPcapWriter(w, packet.LinkTypeDot11)
	for _, r := range s.records {
		data, err := packet.Serialize(r.Frame)
		if err != nil {
			return fmt.Errorf("sniffer %s: serializing pkt %d: %w", s.Name, r.PktID, err)
		}
		if err := pw.WritePacket(r.Timestamp(), data); err != nil {
			return err
		}
	}
	return nil
}

// Merged is the union of several sniffers' captures, deduplicated by
// packet ID with the earliest timestamp winning — the paper's rationale
// for deploying sniffers A, B, and C. Records are in timestamp order;
// distinct frames with equal timestamps keep the order of the sniffers
// passed to Merge, then each sniffer's capture order, so the order is
// the same on every run. Build it once per analysis and share it.
type Merged struct {
	recs []Record
	byID map[uint64]int // packet ID → index into recs
}

// Merge combines captures with a k-way merge of the sniffers' records,
// each already in timestamp order. The first record taken for a packet
// ID is its earliest, so later copies (another sniffer's, or a frame
// the AP re-sent) are dropped.
func Merge(sniffers ...*Sniffer) *Merged {
	// Size for the fullest capture: with low per-sniffer loss the union
	// is barely larger, and duplicates make the sum three times too big.
	n := 0
	for _, s := range sniffers {
		n = max(n, len(s.records))
	}
	m := &Merged{recs: make([]Record, 0, n), byID: make(map[uint64]int, n)}
	next := make([]int, len(sniffers))
	for {
		pick := -1
		for i, s := range sniffers {
			if next[i] == len(s.records) {
				continue
			}
			if pick < 0 || s.records[next[i]].Timestamp() < sniffers[pick].records[next[pick]].Timestamp() {
				pick = i
			}
		}
		if pick < 0 {
			return m
		}
		r := sniffers[pick].records[next[pick]]
		next[pick]++
		if _, dup := m.byID[r.PktID]; !dup {
			m.byID[r.PktID] = len(m.recs)
			m.recs = append(m.recs, r)
		}
	}
}

// Records returns the deduplicated records in timestamp order. The
// slice is shared; callers must not modify it.
func (m *Merged) Records() []Record { return m.recs }

// TimeOf returns the merged air timestamp for a packet ID.
func (m *Merged) TimeOf(id uint64) (time.Duration, bool) {
	i, ok := m.byID[id]
	if !ok {
		return 0, false
	}
	return m.recs[i].Timestamp(), true
}

// RTT computes dn = tin − ton for a request/response packet-ID pair; ok
// is false when either frame was missed by every sniffer.
func (m *Merged) RTT(reqID, respID uint64) (time.Duration, bool) {
	ton, ok1 := m.TimeOf(reqID)
	tin, ok2 := m.TimeOf(respID)
	if !ok1 || !ok2 || tin < ton {
		return 0, false
	}
	return tin - ton, true
}
