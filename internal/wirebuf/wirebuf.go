// Package wirebuf is the one decode discipline under every binary wire
// form in the repository: the ACMB summary batch, the ACMG gossip frame
// and the aggregate encodings they embed. Its Cursor walks an in-memory
// frame with a bounds check on every read, so a decoder facing
// untrusted bytes checks each declared length against its cap and
// against the bytes actually present before anything is allocated.
// Every truncated read is io.ErrUnexpectedEOF; every declared length
// or count past its cap wraps ErrFrameTooBig.
//
// Varints are minimal: every encoder writes them with
// binary.AppendUvarint, and a reader refuses one padded with 0x80
// continuation bytes (ErrPaddedVarint), so every value a reader
// accepts has exactly one encoding.
package wirebuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrFrameTooBig tags decode failures caused by a declared length or
// count exceeding its cap — the "hostile frame" rejection distinct from
// plain corruption, surfaced in tests and useful to callers that count
// them.
var ErrFrameTooBig = errors.New("wire: frame exceeds cap")

// ErrPaddedVarint rejects a varint longer than its value needs: one
// that ends in a 0x00 byte after a continuation byte.
var ErrPaddedVarint = errors.New("wire: varint is not minimally encoded")

// Zigzag maps signed to unsigned so small-magnitude negatives stay
// short varints; Unzigzag inverts it.
func Zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendString appends s with its uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadUvarint reads one uvarint from a stream, as binary.ReadUvarint
// does, and refuses it with ErrPaddedVarint unless it is minimal. It
// returns io.EOF only when no byte was read.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			if b == 0 && i > 0 {
				return 0, ErrPaddedVarint
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrFrameTooBig)
}

// Cursor is a bounds-checked reader over one in-memory frame. It never
// allocates; byte slices it returns alias the frame.
type Cursor struct {
	buf []byte
	off int
}

// NewCursor starts a cursor at the first byte of buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.buf) - c.off }

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	// A minimal varint longer than one byte never ends in 0x00.
	if n > 1 && c.buf[c.off+n-1] == 0 {
		return 0, ErrPaddedVarint
	}
	c.off += n
	return v, nil
}

// Varint reads a zigzag-coded signed varint.
func (c *Cursor) Varint() (int64, error) {
	u, err := c.Uvarint()
	return Unzigzag(u), err
}

// Uint63 reads an unsigned varint that must fit a non-negative int64
// (a counter, a mass, a duration).
func (c *Cursor) Uint63() (int64, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: value %d overflows int64", ErrFrameTooBig, v)
	}
	return int64(v), nil
}

// Float64 reads 8 bytes of little-endian IEEE-754 bits.
func (c *Cursor) Float64() (float64, error) {
	if c.Remaining() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v, nil
}

// Field reads a uvarint length prefix, refuses it past max or past the
// bytes present, and returns that many bytes without copying them.
func (c *Cursor) Field(max uint64) ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("%w: field of %d bytes", ErrFrameTooBig, n)
	}
	if n > uint64(c.Remaining()) {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// Count reads an entry count capped at max and at the bytes actually
// present (every entry costs at least one byte), so a count bomb can
// never size an allocation.
func (c *Cursor) Count(max int) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) || v > uint64(c.Remaining()) {
		return 0, fmt.Errorf("%w: count %d", ErrFrameTooBig, v)
	}
	return int(v), nil
}
