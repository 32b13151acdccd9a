// Package am002fix is the AM002 golden fixture: wire-read values
// sizing allocations with and without the required cap check. Loaded
// under a repro/internal/ingest import path so the scope rule applies.
package am002fix

import (
	"encoding/binary"
	"io"

	"repro/internal/wirebuf"
)

const maxEntries = 1 << 16

// DecodeRaw sizes an allocation by an unchecked wire read.
func DecodeRaw(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	return make([]byte, n) // want "AM002: allocation sized by wire-read value n"
}

// DecodeInline feeds the wire read straight into make.
func DecodeInline(buf []byte) []byte {
	return make([]byte, binary.LittleEndian.Uint32(buf)) // want "AM002: allocation sized directly by a wire read"
}

// DecodeChecked is the required idiom: read, cap-check, allocate.
func DecodeChecked(buf []byte) ([]byte, bool) {
	n, _ := binary.Uvarint(buf)
	if n > maxEntries {
		return nil, false
	}
	return make([]byte, n), true
}

// DecodeString slices by an unchecked wire length: the string-copy path.
func DecodeString(buf []byte) string {
	n, _ := binary.Uvarint(buf)
	return string(buf[:n]) // want "AM002: slice bound uses wire-read value n"
}

// DecodeLoop grows a slice an unchecked wire-read number of times.
func DecodeLoop(buf []byte) []uint64 {
	count, _ := binary.Uvarint(buf)
	var out []uint64
	for i := uint64(0); i < count; i++ { // want "AM002: loop appends up to wire-read value count"
		out = append(out, 0)
	}
	return out
}

// DecodeBudget clears taint by handing the count to a bounding helper.
func DecodeBudget(buf []byte) []uint64 {
	count, _ := binary.Uvarint(buf)
	if err := checkBudget(count); err != nil {
		return nil
	}
	return make([]uint64, 0, count)
}

func checkBudget(n uint64) error {
	if n > maxEntries {
		return errTooBig
	}
	return nil
}

type decodeError string

func (e decodeError) Error() string { return string(e) }

const errTooBig = decodeError("count exceeds budget")

// DecodeCursor sizes an allocation by an unchecked read of the shared
// wire cursor, a taint source from any in-scope package.
func DecodeCursor(buf []byte) []uint64 {
	d := wirebuf.NewCursor(buf)
	n, _ := d.Uvarint()
	return make([]uint64, n) // want "AM002: allocation sized by wire-read value n"
}

// DecodeCursorChecked is the same read after the cap check.
func DecodeCursorChecked(buf []byte) []uint64 {
	d := wirebuf.NewCursor(buf)
	n, _ := d.Uvarint()
	if n > maxEntries {
		return nil
	}
	return make([]uint64, n)
}

// DecodeStream sizes an allocation by an unchecked stream read through
// wirebuf.ReadUvarint, a source like binary.ReadUvarint.
func DecodeStream(r io.ByteReader) []byte {
	n, _ := wirebuf.ReadUvarint(r)
	return make([]byte, n) // want "AM002: allocation sized by wire-read value n"
}

// DecodeWaived keeps a deliberate unchecked allocation with a waiver.
func DecodeWaived(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	return make([]byte, n) /* wantsup "AM002: allocation sized by wire-read value n" */ //acutemon:ignore AM002 fixture waiver: caller slices buf to the frame budget first
}
