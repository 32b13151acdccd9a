package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wirebuf"
)

// fuzzSeedSketchBlobs are the structured seeds FuzzSketchBatchFold
// starts from: canonical encodings at several compressions plus the
// centroid-count length bomb, so the cap-rejection path runs on every
// smoke run instead of waiting for the fuzzer to rediscover it.
func fuzzSeedSketchBlobs(f *testing.F) [][]byte {
	var blobs [][]byte
	for _, comp := range []float64{0, MinSketchCompression, MaxSketchCompression} {
		sk := NewSketch(comp)
		for i := 0; i < 500; i++ {
			sk.AddDuration(time.Duration(i%37) * time.Millisecond)
		}
		blobs = append(blobs, sk.AppendBinary(nil))
	}
	blobs = append(blobs, NewSketch(0).AppendBinary(nil))
	// Length bomb: a well-formed header whose centroid count claims
	// 2^62 entries. UnmarshalBinary must reject it at the cap check,
	// before allocating.
	bomb := []byte{sketchBinaryVersion}
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(DefaultSketchCompression))
	bomb = binary.AppendUvarint(bomb, 100)                             // count
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(1)) // min
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(2)) // max
	bomb = binary.AppendUvarint(bomb, 1<<62)                           // centroid count
	if err := new(Sketch).UnmarshalBinary(bomb); err == nil {
		f.Fatal("length-bomb seed unexpectedly decodes")
	}
	return append(blobs, bomb)
}

// FuzzSketchBatchFold hammers the wire-facing sketch gauntlet
// (UnmarshalBinary + Valid, exactly what the ingest decoders run) with
// arbitrary blobs, then pushes every accepted sketch through the batch
// entry points the fold path uses. It must never panic, hostile blobs
// must still be rejected at the same caps with buffered inserts in
// play, and on accepted sketches:
//
//   - AddMulti must leave the sketch byte-identical to per-observation
//     Add — buffer contents, flush boundaries, centroids, everything —
//     since the sharding-equivalence contract is built on it;
//   - the folded and merged sketches must still pass Valid (the
//     centroid cap holds under batched compression);
//   - the canonical binary form must round-trip byte-identically;
//   - Hist.AddMulti and Moments.AddMulti over the same run must match
//     their serial folds exactly.
func FuzzSketchBatchFold(f *testing.F) {
	for _, blob := range fuzzSeedSketchBlobs(f) {
		f.Add(blob, uint16(96))
	}
	f.Fuzz(func(t *testing.T, data []byte, runLen uint16) {
		var wire Sketch
		if err := wire.UnmarshalBinary(data); err != nil {
			return // rejected before allocation; nothing to fold
		}
		if err := wire.Valid(); err != nil {
			return // parseable but hostile: the server drops it here
		}

		// A deterministic finite observation run long enough to cross
		// flush boundaries at the default compression's bufLimit.
		vs := make([]float64, int(runLen%1200)+1)
		for i := range vs {
			vs[i] = float64(data[i%len(data)])*1e5 + float64(i)
		}

		batched, serial := wire.Clone(), wire.Clone()
		batched.AddMulti(vs)
		for _, v := range vs {
			serial.Add(v)
		}
		if !reflect.DeepEqual(batched, serial) {
			t.Fatalf("AddMulti diverged from serial Add after %d observations", len(vs))
		}
		batched.Flush()
		if err := batched.Valid(); err != nil {
			t.Fatalf("accepted sketch invalid after batched fold: %v", err)
		}

		merged := NewSketch(wire.Compression)
		merged.AddMulti(vs)
		merged.Merge(&wire)
		if err := merged.Valid(); err != nil {
			t.Fatalf("merge of accepted sketch breaks validity: %v", err)
		}

		enc := wire.AppendBinary(nil)
		var back Sketch
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("canonical re-encode does not re-decode: %v", err)
		}
		if !bytes.Equal(enc, back.AppendBinary(nil)) {
			t.Fatal("canonical binary form is not a fixed point")
		}

		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v)
		}
		hb, hs := NewDurationHist(), NewDurationHist()
		hb.AddMulti(ds)
		for _, d := range ds {
			hs.Add(d)
		}
		if !reflect.DeepEqual(hb, hs) {
			t.Fatal("Hist.AddMulti diverged from serial Add")
		}
		var mb, ms Moments
		mb.AddMulti(vs)
		for _, v := range vs {
			ms.Add(v)
		}
		if mb != ms {
			t.Fatalf("Moments.AddMulti diverged from serial Add: %+v vs %+v", mb, ms)
		}
	})
}

// FuzzHistOps decodes a byte string into a sequence of Hist operations
// over three slots — Add, AddN, AddMulti, setCount, Merge in either
// direction (self-merges included), Reset,
// Clone, JSON decode into a used or a fresh Hist, and the zero value —
// and applies each to the span-stored Hist and to the dense reference
// model. After every operation the touched Hist must match its model:
// every bin, N, quantiles, JSON bytes, and a span and capacity inside
// the geometry.
func FuzzHistOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 250, 0, 3, 2, 1, 5, 7, 9, 11, 13, 4, 1, 5, 0, 2, 9, 9, 9})
	f.Add([]byte{2, 0, 7, 0, 0, 255, 255, 10, 10, 20, 20, 30, 30, 40, 40, 50, 50, 4, 3, 6, 7, 8, 2, 4, 0})
	f.Add([]byte{9, 0, 0, 1, 0, 5, 4, 4, 4, 2, 10, 0, 3, 1, 1, 200, 7, 7, 1, 4, 5, 8, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const slots, maxOps = 3, 64
		hs := make([]*Hist, slots)
		ds := make([]*denseHist, slots)
		for i := range hs {
			hs[i], ds[i] = NewDurationHist(), newDense()
		}
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		dur := func() (time.Duration, bool) {
			hi, ok1 := next()
			lo, ok2 := next()
			v := int64(hi)<<8 | int64(lo)
			// Bins -50..1049 of the standard geometry at sub-bin offsets:
			// mostly in range, some under, some over.
			return time.Duration(v%1100-50)*500*time.Microsecond + time.Duration(v/1100)*7*time.Microsecond, ok1 && ok2
		}
		for op := 0; op < maxOps; op++ {
			code, ok := next()
			if !ok {
				return
			}
			arg, ok := next()
			if !ok {
				return
			}
			a, b := int(arg)%slots, int(arg/slots)%slots
			h, d := hs[a], ds[a]
			var name string
			switch code % 11 {
			case 0:
				x, ok := dur()
				if !ok {
					return
				}
				name = "Add"
				h.Add(x)
				d.addN(x, 1)
			case 1:
				x, ok := dur()
				n, ok2 := next()
				if !ok || !ok2 {
					return
				}
				name = "AddN"
				h.AddN(x, int64(n%6)-1)
				d.addN(x, int64(n%6)-1)
			case 2:
				name = "AddMulti"
				var xs []time.Duration
				for k := int(arg / 9 % 8); k > 0; k-- {
					x, ok := dur()
					if !ok {
						return
					}
					xs = append(xs, x)
				}
				h.AddMulti(xs)
				for _, x := range xs {
					d.addN(x, 1)
				}
			case 3:
				hi, ok1 := next()
				lo, ok2 := next()
				c, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				name = "setCount"
				i := (int(hi)<<8 | int(lo)) % h.Bins()
				h.setCount(i, int64(c))
				d.counts[i] = int64(c)
			case 4:
				name = "Merge"
				h.Merge(hs[b])
				d.merge(ds[b])
			case 5:
				name = "Reset"
				h.Reset()
				d.reset()
			case 6:
				name = "Clone"
				hs[a], ds[a] = hs[b].Clone(), ds[b].clone()
			case 7:
				name = "json-used"
				js, err := json.Marshal(hs[b])
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(js, h); err != nil {
					t.Fatal(err)
				}
				ds[a] = ds[b].clone()
			case 8:
				name = "json-fresh"
				js, err := json.Marshal(hs[b])
				if err != nil {
					t.Fatal(err)
				}
				var fresh Hist
				if err := json.Unmarshal(js, &fresh); err != nil {
					t.Fatal(err)
				}
				hs[a], ds[a] = &fresh, ds[b].clone()
			case 9:
				name = "zero"
				hs[a], ds[a] = &Hist{}, newDense()
			default:
				name = "new"
				hs[a], ds[a] = NewDurationHist(), newDense()
			}
			checkDense(t, fmt.Sprintf("op %d %s slot %d", op, name, a), hs[a], ds[a])
			if code%11 == 6 || code%11 == 4 {
				checkDense(t, fmt.Sprintf("op %d %s source slot %d", op, name, b), hs[b], ds[b])
			}
		}
	})
}

// FuzzHistDecode feeds arbitrary bytes to both Hist decoders. Neither
// may panic. A binary form ReadBinary accepts re-encodes byte for byte
// to the bytes it consumed: the cursor refuses a padded varint, so an
// accepted form has no other encoding. A JSON form UnmarshalJSON
// accepts round-trips through MarshalJSON to an equal Hist. The
// committed corpus under testdata/fuzz holds hand-encoded foreign
// geometries, hostile bin counts and padded varints (which
// TestHistReadBinaryRefusesPaddedVarints requires refused); the seeds
// added here are forms the encoders write.
func FuzzHistDecode(f *testing.F) {
	for _, ds := range [][]time.Duration{
		nil,
		{-time.Millisecond, 40 * time.Millisecond, 2 * time.Second},
		{0, 250 * time.Millisecond, DurationHistHi - 1},
	} {
		h := NewDurationHist()
		h.AddMulti(ds)
		f.Add(h.AppendBinary(nil))
		js, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Hist
		cur := wirebuf.NewCursor(data)
		if h.ReadBinary(&cur) == nil {
			used := data[:len(data)-cur.Remaining()]
			enc := h.AppendBinary(nil)
			if !bytes.Equal(enc, used) {
				t.Fatalf("accepted binary form % x re-encodes as % x", used, enc)
			}
		}
		var j Hist
		if j.UnmarshalJSON(data) != nil {
			return
		}
		js, err := j.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted JSON form does not re-encode: %v", err)
		}
		var back Hist
		if err := back.UnmarshalJSON(js); err != nil {
			t.Fatalf("re-encoded JSON %.200s refused: %v", js, err)
		}
		if back.Under != j.Under || back.Over != j.Over {
			t.Fatalf("JSON round trip moved under/over (%d,%d) to (%d,%d)", j.Under, j.Over, back.Under, back.Over)
		}
		for i := 0; i < DurationHistBins; i++ {
			if back.Count(i) != j.Count(i) {
				t.Fatalf("JSON round trip moved bin %d from %d to %d", i, j.Count(i), back.Count(i))
			}
		}
	})
}

// TestHistReadBinaryRefusesPaddedVarints reads FuzzHistDecode's
// committed padded-varints seed, a valid histogram whose varints carry
// 0x80 padding, and requires ReadBinary to refuse it.
func TestHistReadBinaryRefusesPaddedVarints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzHistDecode", "padded-varints"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed is not one []byte value: %q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	var h Hist
	cur := wirebuf.NewCursor([]byte(data))
	if err := h.ReadBinary(&cur); !errors.Is(err, wirebuf.ErrPaddedVarint) {
		t.Fatalf("padded form accepted or refused for another reason: %v", err)
	}
}
