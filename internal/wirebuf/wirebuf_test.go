package wirebuf

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestZigzagRoundTrip: the signed mapping inverts exactly and keeps
// small magnitudes small.
func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	if Zigzag(-1) != 1 || Zigzag(1) != 2 {
		t.Errorf("Zigzag(-1), Zigzag(1) = %d, %d; want 1, 2", Zigzag(-1), Zigzag(1))
	}
}

// TestCursorReads walks one frame holding every read shape.
func TestCursorReads(t *testing.T) {
	b := []byte{7}
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendUvarint(b, Zigzag(-5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2.5))
	b = AppendString(b, "key")
	b = binary.AppendUvarint(b, 2) // a count of two entries, then them
	b = append(b, 1, 2)
	d := NewCursor(b)
	if v, err := d.Byte(); err != nil || v != 7 {
		t.Fatalf("Byte = %d, %v", v, err)
	}
	if v, err := d.Uint63(); err != nil || v != 300 {
		t.Fatalf("Uint63 = %d, %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -5 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := d.Float64(); err != nil || v != 2.5 {
		t.Fatalf("Float64 = %v, %v", v, err)
	}
	if v, err := d.Field(3); err != nil || string(v) != "key" {
		t.Fatalf("Field = %q, %v", v, err)
	}
	if v, err := d.Count(2); err != nil || v != 2 {
		t.Fatalf("Count = %d, %v", v, err)
	}
	if d.Remaining() != 2 {
		t.Fatalf("%d bytes left, want 2", d.Remaining())
	}
}

// TestCursorRejections: every truncated read is io.ErrUnexpectedEOF and
// every length or count past its cap wraps ErrFrameTooBig, before the
// cursor hands out a byte.
func TestCursorRejections(t *testing.T) {
	bomb := append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0x01)
	cases := []struct {
		name string
		buf  []byte
		read func(*Cursor) error
		want error
	}{
		{"byte", nil, func(d *Cursor) error { _, err := d.Byte(); return err }, io.ErrUnexpectedEOF},
		{"uvarint", []byte{0x80}, func(d *Cursor) error { _, err := d.Uvarint(); return err }, io.ErrUnexpectedEOF},
		{"float64", make([]byte, 7), func(d *Cursor) error { _, err := d.Float64(); return err }, io.ErrUnexpectedEOF},
		{"field-short", []byte{3, 'a'}, func(d *Cursor) error { _, err := d.Field(8); return err }, io.ErrUnexpectedEOF},
		{"field-cap", []byte{9}, func(d *Cursor) error { _, err := d.Field(8); return err }, ErrFrameTooBig},
		{"field-bomb", bomb, func(d *Cursor) error { _, err := d.Field(8); return err }, ErrFrameTooBig},
		{"uint63", bomb, func(d *Cursor) error { _, err := d.Uint63(); return err }, ErrFrameTooBig},
		{"count-cap", []byte{5, 0, 0, 0, 0, 0}, func(d *Cursor) error { _, err := d.Count(4); return err }, ErrFrameTooBig},
		{"count-unbacked", []byte{3, 0}, func(d *Cursor) error { _, err := d.Count(100); return err }, ErrFrameTooBig},
	}
	for _, tc := range cases {
		d := NewCursor(tc.buf)
		if err := tc.read(&d); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
