package agg

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/wirebuf"
)

// Binary sketch wire form, the compact encoding a device-side collector
// embeds in an ingest binary-batch frame (internal/ingest binwire) and a
// gossip cell carries (ACMG). The layout is versioned and
// length-independent — the container frames it with AppendSketch:
//
//	byte    version (sketchBinaryVersion)
//	8 bytes compression (IEEE-754 bits, little endian)
//	uvarint count
//	if count > 0: 8 bytes min, 8 bytes max
//	uvarint number of centroids
//	per centroid: 8 bytes mean, uvarint weight
//
// The buffer is always flushed before encoding, so like the JSON form
// the binary form is canonical, and decode → encode is byte-identical.
const sketchBinaryVersion = 1

// maxBinaryCentroids bounds the centroid-count field before any
// allocation happens; a valid sketch at the maximum compression never
// exceeds it, so anything larger is hostile.
var maxBinaryCentroids = maxCentroids(MaxSketchCompression)

// MaxSketchBinaryBytes bounds the encoded size of any valid sketch:
// header + min/max + per-centroid mean (8 bytes) and weight (≤ 10-byte
// uvarint). Containers use it to cap the length prefix they accept.
const MaxSketchBinaryBytes = 1 + 8 + binary.MaxVarintLen64 + 16 +
	binary.MaxVarintLen64 + (MaxSketchCompression+16)*(8+binary.MaxVarintLen64)

// AppendBinary flushes the sketch and appends its canonical binary form
// to dst, returning the extended slice.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	s.Flush()
	dst = append(dst, sketchBinaryVersion)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Compression))
	dst = binary.AppendUvarint(dst, uint64(s.Count))
	if s.Count > 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.MinV))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.MaxV))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Centroids)))
	for _, c := range s.Centroids {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Mean))
		dst = binary.AppendUvarint(dst, uint64(c.Weight))
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 64+len(s.Centroids)*12)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: it decodes one
// sketch from data, which must contain exactly one encoded sketch. The
// decoder is wire-hardened: every declared length is checked against
// the bytes actually present before anything is allocated, so a hostile
// blob cannot make it allocate past the input's own size. Structural
// validity (sorted centroids, weight sums, finite extremes) is Valid's
// job — wire-facing callers run both, exactly as on the JSON path.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	d := wirebuf.NewCursor(data)
	ver, err := d.Byte()
	if err != nil {
		return fmt.Errorf("agg: sketch binary: %w", err)
	}
	if ver != sketchBinaryVersion {
		return fmt.Errorf("agg: sketch binary: unknown version %d", ver)
	}
	comp, err := d.Float64()
	if err != nil {
		return fmt.Errorf("agg: sketch binary: compression: %w", err)
	}
	count, err := d.Uint63()
	if err != nil {
		return fmt.Errorf("agg: sketch binary: count: %w", err)
	}
	out := Sketch{Compression: comp, Count: count}
	if count > 0 {
		if out.MinV, err = d.Float64(); err != nil {
			return fmt.Errorf("agg: sketch binary: min: %w", err)
		}
		if out.MaxV, err = d.Float64(); err != nil {
			return fmt.Errorf("agg: sketch binary: max: %w", err)
		}
	}
	n, err := d.Uvarint()
	if err != nil {
		return fmt.Errorf("agg: sketch binary: centroid count: %w", err)
	}
	// Each centroid needs ≥ 9 encoded bytes, so the remaining input
	// bounds n tighter than the structural cap for small frames —
	// checking both before allocating keeps a hostile header honest.
	if n > uint64(maxBinaryCentroids) || n > uint64(d.Remaining()/9) {
		return fmt.Errorf("agg: sketch binary: %d centroids exceeds cap", n)
	}
	if n > 0 {
		out.Centroids = make([]Centroid, n)
		for i := range out.Centroids {
			mean, err := d.Float64()
			if err != nil {
				return fmt.Errorf("agg: sketch binary: centroid %d mean: %w", i, err)
			}
			w, err := d.Uint63()
			if err != nil {
				return fmt.Errorf("agg: sketch binary: centroid %d weight: %w", i, err)
			}
			out.Centroids[i] = Centroid{Mean: mean, Weight: w}
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("agg: sketch binary: %d trailing bytes", d.Remaining())
	}
	*s = out
	return nil
}

// AppendSketch appends sk's binary form with a uvarint length prefix —
// the one way a container frame embeds a sketch.
func AppendSketch(dst []byte, sk *Sketch) []byte {
	blob := sk.AppendBinary(nil)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// ReadSketch reads a sketch embedded by AppendSketch, refusing a length
// prefix past MaxSketchBinaryBytes before it reads the blob.
func ReadSketch(d *wirebuf.Cursor) (*Sketch, error) {
	blob, err := d.Field(MaxSketchBinaryBytes)
	if err != nil {
		return nil, fmt.Errorf("agg: sketch: %w", err)
	}
	sk := new(Sketch)
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return sk, nil
}
