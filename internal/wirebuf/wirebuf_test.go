package wirebuf

import (
	"bytes"
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

// TestPaddedVarintsRefused: a varint padded with 0x80 continuation
// bytes decodes to a valid value under binary.Uvarint, and both readers
// refuse it; the minimal form of the same value reads back.
func TestPaddedVarintsRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes []byte
		ok    bool
		want  uint64
	}{
		{"zero", []byte{0x00}, true, 0},
		{"one byte", []byte{0x7f}, true, 127},
		{"two bytes", []byte{0x80, 0x01}, true, 128},
		{"max", binary.AppendUvarint(nil, math.MaxUint64), true, math.MaxUint64},
		{"padded zero", []byte{0x80, 0x00}, false, 0},
		{"padded one", []byte{0x81, 0x80, 0x00}, false, 0},
		{"padded to ten bytes", []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, false, 0},
	} {
		c := NewCursor(tc.bytes)
		v, err := c.Uvarint()
		sv, serr := ReadUvarint(bytes.NewReader(tc.bytes))
		if tc.ok {
			if err != nil || v != tc.want || serr != nil || sv != tc.want {
				t.Errorf("%s: cursor %d, %v; stream %d, %v; want %d", tc.name, v, err, sv, serr, tc.want)
			}
			continue
		}
		if !errors.Is(err, ErrPaddedVarint) || !errors.Is(serr, ErrPaddedVarint) {
			t.Errorf("%s: cursor %v, stream %v; want ErrPaddedVarint from both", tc.name, err, serr)
		}
		if c.Remaining() != len(tc.bytes) {
			t.Errorf("%s: a refused read consumed %d bytes", tc.name, len(tc.bytes)-c.Remaining())
		}
	}
}

// TestReadUvarintEOF keeps binary.ReadUvarint's end-of-stream errors:
// io.EOF before the first byte, io.ErrUnexpectedEOF inside a varint.
func TestReadUvarintEOF(t *testing.T) {
	if _, err := ReadUvarint(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadUvarint(bytes.NewReader([]byte{0x80})); err != io.ErrUnexpectedEOF {
		t.Errorf("cut varint: %v, want io.ErrUnexpectedEOF", err)
	}
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, err := ReadUvarint(bytes.NewReader(over)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("65-bit varint: %v, want ErrFrameTooBig", err)
	}
}

// FuzzCursorVarint reads any bytes as a run of Uvarint, Varint and
// Field reads in turn, and requires every accepted read to re-encode
// to exactly the bytes it consumed: there is one encoding of each
// value. The stream reader must accept exactly the uvarints the cursor
// does, with the same value.
func FuzzCursorVarint(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00})
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 300), Zigzag(-5)))
	f.Add(AppendString(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2), "key"))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{0x01, 0x80, 0x80, 0x00})
	f.Add([]byte{0x01, 0x02, 0x83, 0x00, 'a', 'b', 'c'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCursor(data)
		for k := 0; c.Remaining() > 0; k++ {
			start := len(data) - c.Remaining()
			var enc []byte
			switch k % 3 {
			case 0:
				v, err := c.Uvarint()
				sv, serr := ReadUvarint(bytes.NewReader(data[start:]))
				if (err == nil) != (serr == nil) || sv != v {
					t.Fatalf("at %d: cursor %d, %v; stream %d, %v", start, v, err, sv, serr)
				}
				if err != nil {
					return
				}
				enc = binary.AppendUvarint(nil, v)
			case 1:
				v, err := c.Varint()
				if err != nil {
					return
				}
				enc = binary.AppendUvarint(nil, Zigzag(v))
			case 2:
				b, err := c.Field(uint64(len(data)))
				if err != nil {
					return
				}
				enc = AppendString(nil, string(b))
			}
			if used := data[start : len(data)-c.Remaining()]; !bytes.Equal(enc, used) {
				t.Fatalf("read %d consumed % x, which re-encodes as % x", k, used, enc)
			}
		}
	})
}
