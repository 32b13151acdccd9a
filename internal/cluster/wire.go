// Package cluster turns N acutemon-ingestd peers into a static-seed
// gossip cluster: every node keeps its local ingest.Store authoritative
// for what it ingested, pulls epoch-cursored aggregate + knowledge
// deltas from each peer on an anti-entropy timer, and folds the
// replicas into fleet-wide /stats, /v1/stream, and /v1/profiles
// answers. Rounds are idempotent and convergent — deltas carry full
// cumulative cells, so re-delivery replaces a replica row with the same
// state, and a restarted peer resyncs via a full-snapshot reset exactly
// like a stream client on removal-log wrap.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/agg"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

// ACMG frame: the one gossip anti-entropy payload. Layout (all varints
// unsigned unless zigzag-noted):
//
//	"ACMG" magic · version byte · flags byte
//	node-id string · boot-id string · epoch (zigzag)
//	removed count · per key: device/group/scenario strings + window (zigzag)
//	cell count · per cell: payload length + payload (see appendCell)
//	[flagKnowledge] knowledge epoch (zigzag) · snapshot length · snapshot JSON
//
// Decode discipline matches the PR 6 binary ingest wire: every
// declared length is checked against its hard cap AND the bytes
// actually present before any allocation, so a hostile length bomb is
// an error, never an attacker-sized make.

const (
	gossipWireVersion = 1

	flagReset     = 1 << 0
	flagKnowledge = 1 << 1

	// Per-cell track flags (the flags byte inside a cell payload).
	cellFlagRawHist     = 1 << 0
	cellFlagPunctHist   = 1 << 1
	cellFlagRawSketch   = 1 << 2
	cellFlagPunctSketch = 1 << 3
)

var gossipMagic = []byte{'A', 'C', 'M', 'G'}

// GossipContentType labels /v1/cluster/delta responses.
const GossipContentType = "application/x-acutemon-gossip"

// Wire caps. A frame that declares past any of them is rejected before
// allocation (ErrFrameTooBig).
const (
	// maxGossipKeyLen matches the ingest wire's key cap: key strings
	// mint store cells, so their length is bounded at the wire.
	maxGossipKeyLen = 200
	// MaxGossipCellBytes bounds one encoded cell: two sparse 1000-bin
	// histograms plus two sketches fit in a fraction of this.
	MaxGossipCellBytes = 1 << 20
	// MaxGossipCells / MaxGossipRemovals bound one frame's entry counts
	// (a full DefaultMaxCells snapshot plus rollups fits).
	MaxGossipCells    = 1 << 17
	MaxGossipRemovals = 1 << 17
	// MaxGossipKnowledgeBytes matches the /v1/profiles POST cap.
	MaxGossipKnowledgeBytes = 64 << 20
	// MaxGossipFrameBytes is the transport-level read bound on one
	// delta response.
	MaxGossipFrameBytes = 128 << 20
)

// ErrFrameTooBig tags decode failures caused by a declared length or
// count exceeding a wire cap.
var ErrFrameTooBig = errors.New("cluster: gossip frame exceeds cap")

// Delta is one decoded gossip exchange: the sender's identity, its
// store-epoch cursor state, the changed cells (full cumulative state,
// so applying a delta twice converges to the same replica), retracted
// keys, and optionally the sender's whole knowledge snapshot.
type Delta struct {
	NodeID string
	// BootID identifies one process lifetime of the sender; a change
	// means its epoch counter restarted and the receiver's cursor is
	// meaningless (the sender detects this server-side and sets Reset).
	BootID string
	Epoch  int64
	Reset  bool
	Cells  []*ingest.Cell
	// Removed lists keys retention retracted on the sender.
	Removed []ingest.Key
	// Knowledge, when non-nil, is the sender's full knowledge snapshot
	// (validated at decode); KnowEpoch is its puncture-store epoch.
	KnowEpoch int64
	Knowledge *puncture.Snapshot
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendDelta encodes d onto dst.
func AppendDelta(dst []byte, d *Delta) ([]byte, error) {
	if len(d.NodeID) > maxGossipKeyLen || len(d.BootID) > maxGossipKeyLen {
		return nil, fmt.Errorf("%w: node/boot id over %d bytes", ErrFrameTooBig, maxGossipKeyLen)
	}
	if len(d.Cells) > MaxGossipCells {
		return nil, fmt.Errorf("%w: %d cells", ErrFrameTooBig, len(d.Cells))
	}
	if len(d.Removed) > MaxGossipRemovals {
		return nil, fmt.Errorf("%w: %d removals", ErrFrameTooBig, len(d.Removed))
	}
	dst = append(dst, gossipMagic...)
	dst = append(dst, gossipWireVersion)
	var flags byte
	if d.Reset {
		flags |= flagReset
	}
	if d.Knowledge != nil {
		flags |= flagKnowledge
	}
	dst = append(dst, flags)
	dst = appendString(dst, d.NodeID)
	dst = appendString(dst, d.BootID)
	dst = binary.AppendUvarint(dst, zigzag(d.Epoch))
	dst = binary.AppendUvarint(dst, uint64(len(d.Removed)))
	for _, k := range d.Removed {
		if err := checkKey(k); err != nil {
			return nil, err
		}
		dst = appendKey(dst, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Cells)))
	for _, c := range d.Cells {
		payload, err := appendCell(nil, c)
		if err != nil {
			return nil, err
		}
		if len(payload) > MaxGossipCellBytes {
			return nil, fmt.Errorf("%w: encoded cell is %d bytes", ErrFrameTooBig, len(payload))
		}
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
	}
	if d.Knowledge != nil {
		blob, err := json.Marshal(d.Knowledge)
		if err != nil {
			return nil, fmt.Errorf("cluster: encode knowledge: %w", err)
		}
		if len(blob) > MaxGossipKnowledgeBytes {
			return nil, fmt.Errorf("%w: knowledge snapshot is %d bytes", ErrFrameTooBig, len(blob))
		}
		dst = binary.AppendUvarint(dst, zigzag(d.KnowEpoch))
		dst = binary.AppendUvarint(dst, uint64(len(blob)))
		dst = append(dst, blob...)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func checkKey(k ingest.Key) error {
	if len(k.Device) > maxGossipKeyLen || len(k.Group) > maxGossipKeyLen ||
		len(k.Scenario) > maxGossipKeyLen {
		return fmt.Errorf("%w: key field over %d bytes", ErrFrameTooBig, maxGossipKeyLen)
	}
	return nil
}

func appendKey(dst []byte, k ingest.Key) []byte {
	dst = appendString(dst, k.Device)
	dst = appendString(dst, k.Group)
	dst = appendString(dst, k.Scenario)
	return binary.AppendUvarint(dst, zigzag(k.WindowMS))
}

func appendMoments(dst []byte, m agg.Moments) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.N))
	for _, f := range [...]float64{m.Mean, m.M2, m.MinV, m.MaxV} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// appendHist encodes a histogram sparsely: geometry, out-of-range
// mass, then (bin-gap, count) pairs for the nonzero bins only — a
// mostly-empty 1000-bin histogram costs a handful of bytes instead of
// a kilobyte.
func appendHist(dst []byte, h *agg.Hist) []byte {
	dst = binary.AppendUvarint(dst, zigzag(int64(h.Lo)))
	dst = binary.AppendUvarint(dst, zigzag(int64(h.Hi)))
	dst = binary.AppendUvarint(dst, uint64(len(h.Counts)))
	dst = binary.AppendUvarint(dst, uint64(h.Under))
	dst = binary.AppendUvarint(dst, uint64(h.Over))
	nnz := 0
	for _, c := range h.Counts {
		if c != 0 {
			nnz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nnz))
	prev := 0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = binary.AppendUvarint(dst, uint64(c))
		prev = i
	}
	return dst
}

func appendSketch(dst []byte, sk *agg.Sketch) []byte {
	blob := sk.AppendBinary(nil)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// appendCell encodes one cell payload. Field order must match
// decodeCell exactly.
func appendCell(dst []byte, c *ingest.Cell) ([]byte, error) {
	if err := checkKey(c.Key); err != nil {
		return nil, err
	}
	for _, n := range [...]int64{c.Sessions, c.ProbesSent, c.ProbesLost, c.BackgroundSent,
		c.PSMActiveSessions, c.CalibratedSessions, c.ReportedSessions, c.LearnedSessions,
		c.FamilySessions, c.GlobalSessions, c.UncorrectedSessions} {
		if n < 0 {
			return nil, fmt.Errorf("cluster: negative counter %d in cell", n)
		}
	}
	dst = appendKey(dst, c.Key)
	dst = binary.AppendUvarint(dst, zigzag(c.SpanMS))
	dst = binary.AppendUvarint(dst, uint64(c.Sessions))
	dst = binary.AppendUvarint(dst, uint64(c.ProbesSent))
	dst = binary.AppendUvarint(dst, uint64(c.ProbesLost))
	dst = binary.AppendUvarint(dst, uint64(c.BackgroundSent))
	dst = binary.AppendUvarint(dst, uint64(c.PSMActiveSessions))
	dst = binary.AppendUvarint(dst, uint64(c.CalibratedSessions))
	dst = binary.AppendUvarint(dst, uint64(c.ReportedSessions))
	dst = binary.AppendUvarint(dst, uint64(c.LearnedSessions))
	dst = binary.AppendUvarint(dst, uint64(c.FamilySessions))
	dst = binary.AppendUvarint(dst, uint64(c.GlobalSessions))
	dst = binary.AppendUvarint(dst, uint64(c.UncorrectedSessions))
	for _, m := range [...]agg.Moments{c.Raw, c.Punctured, c.Correction, c.Inflation,
		c.UserOverhead, c.SDIOOverhead, c.PSMInflation} {
		dst = appendMoments(dst, m)
	}
	var flags byte
	if c.RawHist != nil {
		flags |= cellFlagRawHist
	}
	if c.PuncturedHist != nil {
		flags |= cellFlagPunctHist
	}
	if c.RawSketch != nil {
		flags |= cellFlagRawSketch
	}
	if c.PuncturedSketch != nil {
		flags |= cellFlagPunctSketch
	}
	dst = append(dst, flags)
	if c.RawHist != nil {
		dst = appendHist(dst, c.RawHist)
	}
	if c.PuncturedHist != nil {
		dst = appendHist(dst, c.PuncturedHist)
	}
	if c.RawSketch != nil {
		dst = appendSketch(dst, c.RawSketch)
	}
	if c.PuncturedSketch != nil {
		dst = appendSketch(dst, c.PuncturedSketch)
	}
	return dst, nil
}

// gossipCursor walks a frame with bounds checks on every read (same
// shape as the ingest wire's cursor, so the decode-bounds analyzer
// tracks its reads as taint sources).
type gossipCursor struct {
	buf []byte
	off int
}

func (d *gossipCursor) remaining() int { return len(d.buf) - d.off }

func (d *gossipCursor) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *gossipCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	d.off += n
	return v, nil
}

func (d *gossipCursor) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

func (d *gossipCursor) float64() (float64, error) {
	if d.remaining() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

// str reads a length-prefixed string, capped before the copy.
func (d *gossipCursor) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxGossipKeyLen {
		return "", fmt.Errorf("%w: string field of %d bytes", ErrFrameTooBig, n)
	}
	if int(n) > d.remaining() {
		return "", io.ErrUnexpectedEOF
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// count reads an entry count capped at max and at the bytes actually
// present (every entry costs at least one byte), so a count bomb can
// never size an allocation.
func (d *gossipCursor) count(max int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) || v > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: count %d", ErrFrameTooBig, v)
	}
	return int(v), nil
}

func (d *gossipCursor) key() (ingest.Key, error) {
	var k ingest.Key
	var err error
	if k.Device, err = d.str(); err != nil {
		return k, err
	}
	if k.Group, err = d.str(); err != nil {
		return k, err
	}
	if k.Scenario, err = d.str(); err != nil {
		return k, err
	}
	k.WindowMS, err = d.varint()
	return k, err
}

func (d *gossipCursor) moments() (agg.Moments, error) {
	var m agg.Moments
	n, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if n > math.MaxInt64 {
		return m, fmt.Errorf("%w: moments count %d", ErrFrameTooBig, n)
	}
	m.N = int64(n)
	for _, p := range [...]*float64{&m.Mean, &m.M2, &m.MinV, &m.MaxV} {
		if *p, err = d.float64(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// hist decodes a sparse histogram and pins its geometry to the one
// every live cell uses (agg.NewDurationHist): a cell with any other
// geometry could never merge into a fleet query, so it is rejected at
// the wire instead of poisoning /stats later.
func (d *gossipCursor) hist() (*agg.Hist, error) {
	lo, err := d.varint()
	if err != nil {
		return nil, err
	}
	hi, err := d.varint()
	if err != nil {
		return nil, err
	}
	nbins, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	h := agg.NewDurationHist()
	if time.Duration(lo) != h.Lo || time.Duration(hi) != h.Hi || nbins != uint64(len(h.Counts)) {
		return nil, fmt.Errorf("cluster: histogram geometry [%d,%d)/%d does not match the duration hist", lo, hi, nbins)
	}
	under, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	over, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if under > math.MaxInt64 || over > math.MaxInt64 {
		return nil, fmt.Errorf("%w: histogram out-of-range mass", ErrFrameTooBig)
	}
	h.Under, h.Over = int64(under), int64(over)
	nnz, err := d.count(len(h.Counts))
	if err != nil {
		return nil, err
	}
	bin := -1
	for i := 0; i < nnz; i++ {
		gap, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		cnt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			bin = int(gap)
		} else {
			if gap == 0 || gap > uint64(len(h.Counts)) {
				return nil, fmt.Errorf("cluster: histogram bin gap %d out of order", gap)
			}
			bin += int(gap)
		}
		if bin < 0 || bin >= len(h.Counts) || cnt == 0 || cnt > math.MaxInt64 {
			return nil, fmt.Errorf("cluster: histogram bin %d/count %d out of range", bin, cnt)
		}
		h.SetCount(bin, int64(cnt))
	}
	return h, nil
}

func (d *gossipCursor) sketch() (*agg.Sketch, error) {
	blen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if blen > agg.MaxSketchBinaryBytes || int(blen) > d.remaining() {
		return nil, fmt.Errorf("%w: sketch of %d bytes", ErrFrameTooBig, blen)
	}
	sk := agg.NewSketch(0)
	if err := sk.UnmarshalBinary(d.buf[d.off : d.off+int(blen)]); err != nil {
		return nil, fmt.Errorf("cluster: sketch: %w", err)
	}
	d.off += int(blen)
	return sk, nil
}

func decodeCell(payload []byte) (*ingest.Cell, error) {
	d := &gossipCursor{buf: payload}
	c := &ingest.Cell{}
	var err error
	if c.Key, err = d.key(); err != nil {
		return nil, err
	}
	if c.SpanMS, err = d.varint(); err != nil {
		return nil, err
	}
	for _, p := range [...]*int64{&c.Sessions, &c.ProbesSent, &c.ProbesLost, &c.BackgroundSent,
		&c.PSMActiveSessions, &c.CalibratedSessions, &c.ReportedSessions, &c.LearnedSessions,
		&c.FamilySessions, &c.GlobalSessions, &c.UncorrectedSessions} {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > math.MaxInt64 {
			return nil, fmt.Errorf("%w: cell counter %d", ErrFrameTooBig, n)
		}
		*p = int64(n)
	}
	for _, p := range [...]*agg.Moments{&c.Raw, &c.Punctured, &c.Correction, &c.Inflation,
		&c.UserOverhead, &c.SDIOOverhead, &c.PSMInflation} {
		if *p, err = d.moments(); err != nil {
			return nil, err
		}
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	if flags&cellFlagRawHist != 0 {
		if c.RawHist, err = d.hist(); err != nil {
			return nil, err
		}
	}
	if flags&cellFlagPunctHist != 0 {
		if c.PuncturedHist, err = d.hist(); err != nil {
			return nil, err
		}
	}
	if flags&cellFlagRawSketch != 0 {
		if c.RawSketch, err = d.sketch(); err != nil {
			return nil, err
		}
	}
	if flags&cellFlagPunctSketch != 0 {
		if c.PuncturedSketch, err = d.sketch(); err != nil {
			return nil, err
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after cell", d.remaining())
	}
	return c, nil
}

// DecodeDelta parses one ACMG frame. data must be the whole frame (the
// transport reads the bounded response body first); any declared
// length past its cap or past the bytes present is an error before an
// allocation.
func DecodeDelta(data []byte) (*Delta, error) {
	if len(data) > MaxGossipFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrFrameTooBig, len(data))
	}
	d := &gossipCursor{buf: data}
	if len(data) < len(gossipMagic)+2 || !bytes.Equal(data[:len(gossipMagic)], gossipMagic) {
		return nil, errors.New("cluster: bad gossip frame magic")
	}
	d.off = len(gossipMagic)
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != gossipWireVersion {
		return nil, fmt.Errorf("cluster: unsupported gossip wire version %d", ver)
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	out := &Delta{Reset: flags&flagReset != 0}
	if out.NodeID, err = d.str(); err != nil {
		return nil, err
	}
	if out.BootID, err = d.str(); err != nil {
		return nil, err
	}
	if out.Epoch, err = d.varint(); err != nil {
		return nil, err
	}
	nRemoved, err := d.count(MaxGossipRemovals)
	if err != nil {
		return nil, err
	}
	// count already rejects values over the cap; the guard keeps the
	// bound locally visible where the value drives the loop below.
	if nRemoved > MaxGossipRemovals {
		return nil, fmt.Errorf("cluster: %w: %d removals", ErrFrameTooBig, nRemoved)
	}
	for i := 0; i < nRemoved; i++ {
		k, err := d.key()
		if err != nil {
			return nil, fmt.Errorf("cluster: removal %d: %w", i+1, err)
		}
		out.Removed = append(out.Removed, k)
	}
	nCells, err := d.count(MaxGossipCells)
	if err != nil {
		return nil, err
	}
	if nCells > MaxGossipCells {
		return nil, fmt.Errorf("cluster: %w: %d cells", ErrFrameTooBig, nCells)
	}
	for i := 0; i < nCells; i++ {
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if plen > MaxGossipCellBytes || int(plen) > d.remaining() {
			return nil, fmt.Errorf("cluster: cell %d: %w: %d bytes", i+1, ErrFrameTooBig, plen)
		}
		c, err := decodeCell(d.buf[d.off : d.off+int(plen)])
		if err != nil {
			return nil, fmt.Errorf("cluster: cell %d: %w", i+1, err)
		}
		d.off += int(plen)
		out.Cells = append(out.Cells, c)
	}
	if flags&flagKnowledge != 0 {
		if out.KnowEpoch, err = d.varint(); err != nil {
			return nil, err
		}
		blen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if blen > MaxGossipKnowledgeBytes || int(blen) > d.remaining() {
			return nil, fmt.Errorf("cluster: %w: knowledge of %d bytes", ErrFrameTooBig, blen)
		}
		snap, err := puncture.ReadSnapshot(bytes.NewReader(d.buf[d.off : d.off+int(blen)]))
		if err != nil {
			return nil, fmt.Errorf("cluster: knowledge: %w", err)
		}
		d.off += int(blen)
		out.Knowledge = snap
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after frame", d.remaining())
	}
	return out, nil
}
