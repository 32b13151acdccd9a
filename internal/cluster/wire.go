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

	"repro/internal/ingest"
	"repro/internal/puncture"
	"repro/internal/wirebuf"
)

// ACMG frame: the one gossip anti-entropy payload. Layout (all varints
// unsigned unless zigzag-noted):
//
//	"ACMG" magic · version byte · flags byte
//	node-id string · boot-id string · epoch (zigzag)
//	removed count · per key: ingest.AppendKey form
//	cell count · per cell: payload length + ingest.AppendCell payload
//	[flagKnowledge] knowledge epoch (zigzag) · snapshot length · snapshot JSON
//
// This file holds only the framing; each aggregate's binary form lives
// beside its type (ingest.AppendCell, agg.Hist.AppendBinary,
// agg.AppendSketch). Decoding reads through a wirebuf.Cursor like the
// ACMB summary wire: every declared length is checked against its hard
// cap AND the bytes actually present before any allocation, so a
// hostile length bomb is an error, never an attacker-sized make.

const (
	gossipWireVersion = 1

	flagReset     = 1 << 0
	flagKnowledge = 1 << 1
	// flagsKnown is every flag this version defines. A frame setting
	// any other bit is refused: a new flag is a new gossipWireVersion.
	flagsKnown = flagReset | flagKnowledge
)

var gossipMagic = []byte{'A', 'C', 'M', 'G'}

// GossipContentType labels /v1/cluster/delta responses.
const GossipContentType = "application/x-acutemon-gossip"

// Wire caps. A frame that declares past any of them is rejected before
// allocation (wirebuf.ErrFrameTooBig). Node and boot ids share the
// ingest key cap (ingest.MaxKeyLen).
const (
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

// AppendDelta encodes d onto dst.
func AppendDelta(dst []byte, d *Delta) ([]byte, error) {
	if len(d.NodeID) > ingest.MaxKeyLen || len(d.BootID) > ingest.MaxKeyLen {
		return nil, fmt.Errorf("%w: node/boot id over %d bytes", wirebuf.ErrFrameTooBig, ingest.MaxKeyLen)
	}
	if len(d.Cells) > MaxGossipCells {
		return nil, fmt.Errorf("%w: %d cells", wirebuf.ErrFrameTooBig, len(d.Cells))
	}
	if len(d.Removed) > MaxGossipRemovals {
		return nil, fmt.Errorf("%w: %d removals", wirebuf.ErrFrameTooBig, len(d.Removed))
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
	dst = wirebuf.AppendString(dst, d.NodeID)
	dst = wirebuf.AppendString(dst, d.BootID)
	dst = binary.AppendUvarint(dst, wirebuf.Zigzag(d.Epoch))
	dst = binary.AppendUvarint(dst, uint64(len(d.Removed)))
	var err error
	for _, k := range d.Removed {
		if dst, err = ingest.AppendKey(dst, k); err != nil {
			return nil, err
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Cells)))
	for _, c := range d.Cells {
		payload, err := ingest.AppendCell(nil, c)
		if err != nil {
			return nil, err
		}
		if len(payload) > MaxGossipCellBytes {
			return nil, fmt.Errorf("%w: encoded cell is %d bytes", wirebuf.ErrFrameTooBig, len(payload))
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
			return nil, fmt.Errorf("%w: knowledge snapshot is %d bytes", wirebuf.ErrFrameTooBig, len(blob))
		}
		dst = binary.AppendUvarint(dst, wirebuf.Zigzag(d.KnowEpoch))
		dst = binary.AppendUvarint(dst, uint64(len(blob)))
		dst = append(dst, blob...)
	}
	return dst, nil
}

// DecodeDelta parses one ACMG frame. data must be the whole frame (the
// transport reads the bounded response body first); any declared
// length past its cap or past the bytes present is an error before an
// allocation.
func DecodeDelta(data []byte) (*Delta, error) {
	if len(data) > MaxGossipFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes", wirebuf.ErrFrameTooBig, len(data))
	}
	if len(data) < len(gossipMagic)+2 || !bytes.Equal(data[:len(gossipMagic)], gossipMagic) {
		return nil, errors.New("cluster: bad gossip frame magic")
	}
	d := wirebuf.NewCursor(data[len(gossipMagic):])
	ver, err := d.Byte()
	if err != nil {
		return nil, err
	}
	if ver != gossipWireVersion {
		return nil, fmt.Errorf("cluster: unsupported gossip wire version %d", ver)
	}
	flags, err := d.Byte()
	if err != nil {
		return nil, err
	}
	if flags&^byte(flagsKnown) != 0 {
		return nil, fmt.Errorf("cluster: unknown gossip flag bits %#x", flags&^byte(flagsKnown))
	}
	out := &Delta{Reset: flags&flagReset != 0}
	for _, p := range [...]*string{&out.NodeID, &out.BootID} {
		b, err := d.Field(ingest.MaxKeyLen)
		if err != nil {
			return nil, err
		}
		*p = string(b)
	}
	if out.Epoch, err = d.Varint(); err != nil {
		return nil, err
	}
	nRemoved, err := d.Count(MaxGossipRemovals)
	if err != nil {
		return nil, err
	}
	// Count already rejects values over the cap; the guard keeps the
	// bound locally visible where the value drives the loop below.
	if nRemoved > MaxGossipRemovals {
		return nil, fmt.Errorf("cluster: %w: %d removals", wirebuf.ErrFrameTooBig, nRemoved)
	}
	for i := 0; i < nRemoved; i++ {
		k, err := ingest.ReadKey(&d)
		if err != nil {
			return nil, fmt.Errorf("cluster: removal %d: %w", i+1, err)
		}
		out.Removed = append(out.Removed, k)
	}
	nCells, err := d.Count(MaxGossipCells)
	if err != nil {
		return nil, err
	}
	if nCells > MaxGossipCells {
		return nil, fmt.Errorf("cluster: %w: %d cells", wirebuf.ErrFrameTooBig, nCells)
	}
	for i := 0; i < nCells; i++ {
		payload, err := d.Field(MaxGossipCellBytes)
		if err != nil {
			return nil, fmt.Errorf("cluster: cell %d: %w", i+1, err)
		}
		c, err := ingest.DecodeCell(payload)
		if err != nil {
			return nil, fmt.Errorf("cluster: cell %d: %w", i+1, err)
		}
		out.Cells = append(out.Cells, c)
	}
	if flags&flagKnowledge != 0 {
		if out.KnowEpoch, err = d.Varint(); err != nil {
			return nil, err
		}
		blob, err := d.Field(MaxGossipKnowledgeBytes)
		if err != nil {
			return nil, fmt.Errorf("cluster: knowledge: %w", err)
		}
		snap, err := puncture.ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("cluster: knowledge: %w", err)
		}
		out.Knowledge = snap
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after frame", d.Remaining())
	}
	return out, nil
}
