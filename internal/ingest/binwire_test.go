package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
)

// randomSummary synthesizes one valid summary; about a fifth carry a
// device-built sketch instead of raw RTTs, a fifth carry nothing but
// counters, and the rest ship raw RTTs — the three wire shapes.
func randomSummary(rng *rand.Rand) Summary {
	devices := []string{"Google Nexus 5", "Samsung Grand", "HTC One", "Sony Xperia J", "电话"}
	s := Summary{
		Device:    devices[rng.Intn(len(devices))],
		Sent:      1 + rng.Intn(100),
		TimeMS:    rng.Int63n(2_000_000_000_000),
		LayersOK:  rng.Intn(2) == 0,
		PSMActive: rng.Intn(3) == 0,
	}
	if rng.Intn(2) == 0 {
		s.Chipset = "BCM4339"
	}
	if rng.Intn(2) == 0 {
		s.Group = "group-" + string(rune('a'+rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		s.Scenario = "scenario-x"
	}
	s.Lost = rng.Intn(s.Sent + 1)
	s.BackgroundSent = rng.Intn(50)
	if rng.Intn(2) == 0 {
		s.EmulatedRTTNS = rng.Int63n(int64(time.Second))
		s.Inflation = 1 + rng.Float64()*10
	}
	if s.LayersOK {
		s.UserOverheadNS = rng.Int63n(int64(5*time.Millisecond)) - int64(time.Millisecond)
		s.SDIOOverheadNS = rng.Int63n(int64(20 * time.Millisecond))
		s.PSMInflationNS = rng.Int63n(int64(100 * time.Millisecond))
		s.Calibrated = rng.Intn(2) == 0
	}
	switch rng.Intn(5) {
	case 0: // sketch carrier
		sk := agg.NewSketch(0)
		for i := 0; i < s.Sent; i++ {
			sk.AddDuration(time.Duration(rng.Int63n(int64(500 * time.Millisecond))))
		}
		s.Sketch = sk
	case 1: // counters only
	default: // raw RTTs, possibly fewer than sent
		n := 1 + rng.Intn(s.Sent)
		s.RTTs = make([]int64, n)
		base := rng.Int63n(int64(100 * time.Millisecond))
		for i := range s.RTTs {
			v := base + rng.Int63n(int64(10*time.Millisecond)) - int64(5*time.Millisecond)
			if v < 0 {
				v = 0
			}
			s.RTTs[i] = v
		}
	}
	return s
}

// canonJSON reduces a batch to its canonical JSON wire bytes — the
// cross-format equality witness (sketches flush to canonical form when
// JSON-marshalled, nil-vs-empty slices collapse).
func canonJSON(t *testing.T, batch []Summary) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, batch); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBinaryBatchRoundTrip is the cross-format equivalence property the
// issue pins: for any valid batch, binary encode→decode and JSON
// encode→decode describe the identical records. Sketch-carrying,
// counters-only, and raw-RTT summaries are all mixed in.
func TestBinaryBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		batch := make([]Summary, 1+rng.Intn(20))
		for i := range batch {
			batch[i] = randomSummary(rng)
		}
		want := canonJSON(t, batch)

		bin, err := AppendBinaryBatch(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeBinaryBatch(bytes.NewReader(bin), 0, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := canonJSON(t, decoded); got != want {
			t.Fatalf("trial %d: binary round trip differs from JSON:\n got %s\nwant %s", trial, got, want)
		}

		// And the JSON path itself round-trips to the same records.
		jdec, err := DecodeBatch(strings.NewReader(want), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonJSON(t, jdec); got != want {
			t.Fatalf("trial %d: JSON round trip not canonical", trial)
		}
	}
}

// TestBinaryBatchDeepEqual pins the decode struct-for-struct on a fixed
// batch (the JSON-bytes witness above can't see fields JSON omits).
func TestBinaryBatchDeepEqual(t *testing.T) {
	sk := agg.NewSketch(0)
	for i := 0; i < 500; i++ {
		sk.AddDuration(time.Duration(i) * time.Millisecond / 7)
	}
	sk.Flush()
	batch := []Summary{
		{Device: "Google Nexus 5", Chipset: "BCM4339", Group: "g", Scenario: "s",
			TimeMS: 123456, Sent: 3, Lost: 1, BackgroundSent: 2,
			EmulatedRTTNS: int64(30 * time.Millisecond), Inflation: 2.5,
			RTTs:     []int64{int64(40 * time.Millisecond), int64(38 * time.Millisecond), int64(41 * time.Millisecond)},
			LayersOK: true, UserOverheadNS: int64(2 * time.Millisecond),
			SDIOOverheadNS: int64(11 * time.Millisecond), PSMInflationNS: -int64(time.Millisecond),
			PSMActive: true, Calibrated: true},
		{Device: "HTC One", Sent: 500, Sketch: sk},
		{Device: "Sony Xperia J", Sent: 1},
	}
	bin, err := AppendBinaryBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryBatch(bytes.NewReader(bin), 10, int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d records, want %d", len(got), len(batch))
	}
	for i := range got {
		// Sketches hold an unexported scratch buffer DeepEqual would trip
		// on; compare them by canonical binary form instead.
		g, w := got[i], batch[i]
		if (g.Sketch == nil) != (w.Sketch == nil) {
			t.Fatalf("record %d: sketch presence mismatch", i)
		}
		if g.Sketch != nil {
			graw, _ := g.Sketch.MarshalBinary()
			wraw, _ := w.Sketch.MarshalBinary()
			if !bytes.Equal(graw, wraw) {
				t.Fatalf("record %d: sketch differs", i)
			}
			g.Sketch, w.Sketch = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestBinaryBatchTruncation: a frame cut anywhere must be rejected —
// the count is declared up front, so no strict prefix is a valid batch.
func TestBinaryBatchTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	batch := []Summary{randomSummary(rng), randomSummary(rng), randomSummary(rng)}
	bin, err := AppendBinaryBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	raw := bin
	for i := 0; i < len(raw); i++ {
		if _, err := DecodeBinaryBatch(bytes.NewReader(raw[:i]), 0, 0); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", i, len(raw))
		}
	}
	// Trailing garbage after the declared count is equally torn.
	if _, err := DecodeBinaryBatch(bytes.NewReader(append(append([]byte{}, raw...), 0)), 0, 0); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBinaryBatchCorruption: random single-byte corruption must either
// error or decode to records that still pass Validate — never panic,
// never yield a poisoned record.
func TestBinaryBatchCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	batch := []Summary{randomSummary(rng), randomSummary(rng)}
	bin, err := AppendBinaryBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	orig := bin
	for trial := 0; trial < 2000; trial++ {
		raw := append([]byte{}, orig...)
		raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
		decoded, err := DecodeBinaryBatch(bytes.NewReader(raw), 100, int64(len(raw)))
		if err != nil {
			continue
		}
		for i := range decoded {
			if verr := decoded[i].Validate(); verr != nil {
				t.Fatalf("corrupted frame decoded to invalid record: %v", verr)
			}
		}
	}
}

// TestBinaryBatchHostileCaps: declared lengths past their caps are
// refused up front — a hostile frame cannot buy allocations with a
// header it never backs with bytes.
func TestBinaryBatchHostileCaps(t *testing.T) {
	hdr := append(append([]byte{}, binMagic[:]...), binWireVersion)
	uv := func(dst []byte, v uint64) []byte {
		for v >= 0x80 {
			dst = append(dst, byte(v)|0x80)
			v >>= 7
		}
		return append(dst, byte(v))
	}

	// Payload length past MaxBinarySummaryBytes.
	huge := uv(append(append([]byte{}, hdr...), 1), MaxBinarySummaryBytes+1)
	if _, err := DecodeBinaryBatch(bytes.NewReader(huge), 0, 0); err == nil {
		t.Fatal("oversized payload length accepted")
	}
	// Hostile summary count with maxSummaries set.
	many := uv(append([]byte{}, hdr...), 1<<40)
	if _, err := DecodeBinaryBatch(bytes.NewReader(many), 100, 0); err == nil {
		t.Fatal("hostile count accepted")
	}
	// A byte budget caps total consumption even with maxSummaries off.
	bin, err := AppendBinaryBatch(nil, benchBatch(50, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryBatch(bytes.NewReader(bin), 0, 64); err == nil {
		t.Fatal("byte budget not enforced")
	}
	// Bad magic and unknown version.
	if _, err := DecodeBinaryBatch(strings.NewReader("NOPE\x01\x01"), 0, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad := append([]byte{}, hdr...)
	bad[4] = 9
	if _, err := DecodeBinaryBatch(bytes.NewReader(append(bad, 1)), 0, 0); err == nil {
		t.Fatal("unknown version accepted")
	}
	// An RTT count the remaining bytes cannot back.
	payload := []byte{flagRTTs, 1, 'X', 0, 0, 0} // device "X", 3 empty keys
	payload = uv(payload, 0)                     // time
	payload = uv(payload, 1<<16)                 // sent
	payload = uv(payload, 0)                     // lost
	payload = uv(payload, 0)                     // background
	payload = uv(payload, 0)                     // emulated
	payload = append(payload, make([]byte, 8)...)
	payload = uv(payload, 1<<16) // rtt count, nothing behind it
	frame := uv(append([]byte{}, hdr...), 1)
	frame = uv(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	if _, err := DecodeBinaryBatch(bytes.NewReader(frame), 0, 0); err == nil {
		t.Fatal("unbacked RTT count accepted")
	}
}

// TestBinarySketchSummaryWire: a sketch-carrying summary survives the
// binary wire into the canonical JSON identical to the JSON wire's.
func TestBinarySketchSummaryWire(t *testing.T) {
	sk := agg.NewSketch(0)
	rng := rand.New(rand.NewSource(74))
	for i := 0; i < 3000; i++ {
		sk.AddDuration(time.Duration(rng.Int63n(int64(2 * time.Second))))
	}
	batch := []Summary{{Device: "Google Nexus 5", Sent: 3000, Sketch: sk}}
	bin, err := AppendBinaryBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBinaryBatch(bytes.NewReader(bin), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	json.NewEncoder(&a).Encode(batch[0].Sketch)
	json.NewEncoder(&b).Encode(decoded[0].Sketch)
	if a.String() != b.String() {
		t.Fatal("sketch changed across the binary wire")
	}
	// The binary form is far smaller than the JSON lines equivalent.
	jlen := len(canonJSON(t, batch))
	if len(bin) >= jlen {
		t.Fatalf("binary sketch frame (%d B) not smaller than JSON (%d B)", len(bin), jlen)
	}
}

// goldenBatch is a fixed ACMB batch that sets every payload flag and
// reaches the edges of the layout: a negative RTT delta, negative
// overheads under layers_ok, psm_active and calibrated, a sketch
// carrier, a counters-only record, and a key at the 200-byte cap.
func goldenBatch() []Summary {
	ms := int64(time.Millisecond)
	sk := agg.NewSketch(0)
	for i := 0; i < 40; i++ {
		sk.AddDuration(time.Duration(20*ms + int64(i*i)*ms/3))
	}
	return []Summary{
		{
			Device: strings.Repeat("k", 200), Chipset: "BCM4339", Group: "wifi-golden", Scenario: "walk",
			TimeMS: 1_700_000_000_123, Sent: 6, Lost: 1, BackgroundSent: 3,
			RTTs:          []int64{30 * ms, 28 * ms, 41*ms + 7, 27 * ms, 27 * ms},
			EmulatedRTTNS: 30 * ms, Inflation: 1.25,
			LayersOK: true, UserOverheadNS: -ms / 4, SDIOOverheadNS: 3 * ms / 2, PSMInflationNS: -1000,
			PSMActive: true, Calibrated: true,
		},
		{Device: "Phone S", Group: "wifi-golden", TimeMS: 1_700_000_000_456, Sent: 40, PSMActive: true, Sketch: sk},
		{Device: "Phone C", Sent: 2, Lost: 2},
	}
}

// TestBinaryBatchGolden pins the ACMB bytes of goldenBatch: a change
// to the binary summary codec must not move the wire form, and a
// decoded batch re-encodes to the same bytes. The digest was recorded
// before the codec moved onto the shared wire cursor.
func TestBinaryBatchGolden(t *testing.T) {
	const want = "6b33b5e7d0defd4277c8fa3fddeb6db70c0adb4dc424b5cbaa5f25f80959e1b0"
	frame, err := AppendBinaryBatch(nil, goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != want {
		t.Errorf("ACMB batch digest %s, want %s", got, want)
	}
	back, err := DecodeBinaryBatch(bytes.NewReader(frame), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AppendBinaryBatch(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Error("decoded batch re-encodes to different bytes")
	}
}
