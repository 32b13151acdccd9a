package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/ingest"
	"repro/internal/puncture"
	"repro/internal/wirebuf"
)

// testCells folds a small mixed workload into a store and returns its
// snapshot — realistic cells with all four optional tracks populated.
func testCells(t testing.TB) []*ingest.Cell {
	t.Helper()
	st := ingest.NewStore(-1, 1)
	ms := int64(time.Millisecond)
	for i := 0; i < 8; i++ {
		s := ingest.Summary{
			Device: "Phone A", Group: "wifi-1", Scenario: "walk",
			Sent: 4, Lost: i % 2, BackgroundSent: 3,
			RTTs:      []int64{30*ms + int64(i)*ms, 31 * ms, 29 * ms, 45 * ms},
			PSMActive: i%2 == 0,
		}
		if !st.Fold(&s, time.Duration(2*ms), ingest.SourceLearned) {
			t.Fatal("fold refused")
		}
	}
	sk := agg.NewSketch(0)
	for i := 0; i < 50; i++ {
		sk.Add(float64(20*ms + int64(i)*ms/2))
	}
	sk.Flush()
	s := ingest.Summary{Device: "Phone B", Group: "wifi-2", Sent: 50, Sketch: sk}
	if !st.Fold(&s, 0, ingest.SourceNone) {
		t.Fatal("sketch fold refused")
	}
	cells := st.Snapshot()
	if len(cells) < 2 {
		t.Fatalf("want ≥2 cells, got %d", len(cells))
	}
	return cells
}

func testKnowledge(t testing.TB) *puncture.Snapshot {
	t.Helper()
	ms := int64(time.Millisecond)
	ks := puncture.NewStore(0)
	ks.RecordAttribution("Phone A", "BCM4339", 2*ms, 3*ms, 5*ms)
	ks.RecordAttribution("Phone B", "QCA6174", 1*ms, 2*ms, 0)
	return ks.Snapshot()
}

func testDelta(t testing.TB) *Delta {
	t.Helper()
	return &Delta{
		NodeID: "node-a", BootID: "boot-1", Epoch: 42, Reset: true,
		Cells: testCells(t),
		Removed: []ingest.Key{
			{Device: "Gone", Group: "wifi-9", Scenario: "drive", WindowMS: -7},
			{Group: "wifi-8"},
		},
		KnowEpoch: 9,
		Knowledge: testKnowledge(t),
	}
}

// cellsJSON renders cells canonically for byte-identical comparison
// (Cell.Epoch is json-omitted, sketches marshal in flushed form), in
// the store's (group, device, scenario, window) order.
func cellsJSON(t testing.TB, cells []*ingest.Cell) string {
	t.Helper()
	sorted := append([]*ingest.Cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].Key, sorted[j].Key
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.WindowMS < b.WindowMS
	})
	b, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGossipDeltaRoundTrip(t *testing.T) {
	d := testDelta(t)
	frame, err := AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != d.NodeID || got.BootID != d.BootID || got.Epoch != d.Epoch ||
		got.Reset != d.Reset || got.KnowEpoch != d.KnowEpoch {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Removed) != len(d.Removed) {
		t.Fatalf("removals: %d != %d", len(got.Removed), len(d.Removed))
	}
	for i, k := range d.Removed {
		if got.Removed[i] != k {
			t.Fatalf("removal %d: %+v != %+v", i, got.Removed[i], k)
		}
	}
	if a, b := cellsJSON(t, got.Cells), cellsJSON(t, d.Cells); a != b {
		t.Fatalf("cells not byte-identical after round trip:\n%s\n%s", a, b)
	}
	kGot, err := json.Marshal(got.Knowledge)
	if err != nil {
		t.Fatal(err)
	}
	kWant, err := json.Marshal(d.Knowledge)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kGot, kWant) {
		t.Fatalf("knowledge not identical after round trip")
	}
	// Idempotent re-encode: decoding and re-encoding yields the same frame.
	again, err := AppendDelta(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeDelta(again)
	if err != nil {
		t.Fatal(err)
	}
	if cellsJSON(t, got2.Cells) != cellsJSON(t, d.Cells) {
		t.Fatal("second round trip diverged")
	}
}

func TestGossipDeltaEmptyFrame(t *testing.T) {
	d := &Delta{NodeID: "n", BootID: "b", Epoch: 0}
	frame, err := AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 0 || len(got.Removed) != 0 || got.Knowledge != nil || got.Reset {
		t.Fatalf("empty delta decoded as %+v", got)
	}
}

// maxUvarint is the largest encodable uvarint — the classic length
// bomb: a 10-byte declaration of ~1.8e19 entries.
var maxUvarint = append(bytes.Repeat([]byte{0xff}, 9), 0x01)

// hostileGossipFrames are handcrafted ACMG frames that each declare
// more than they carry. Every one must be rejected by DecodeDelta
// without allocating what the attacker declared.
func hostileGossipFrames(t testing.TB) map[string][]byte {
	t.Helper()
	// header("n", "b", epoch 1) with given flags.
	header := func(flags byte) []byte {
		b := append([]byte("ACMG"), gossipWireVersion, flags)
		b = wirebuf.AppendString(b, "n")
		b = wirebuf.AppendString(b, "b")
		return binary.AppendUvarint(b, wirebuf.Zigzag(1))
	}
	valid, err := AppendDelta(nil, testDelta(t))
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		"empty":       {},
		"bad-magic":   []byte("NOPE"),
		"bad-version": {'A', 'C', 'M', 'G', 99, 0},
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte{}, valid...), 0xAA),
	}
	// node-id length bomb: declares 2^60 bytes for the id string.
	frames["nodeid-bomb"] = append([]byte{'A', 'C', 'M', 'G', gossipWireVersion, 0}, maxUvarint...)
	// removal count bomb.
	frames["removal-count-bomb"] = append(header(0), maxUvarint...)
	// cell count bomb: zero removals, then a huge cell count.
	b := binary.AppendUvarint(header(0), 0)
	frames["cell-count-bomb"] = append(b, maxUvarint...)
	// cell payload length bomb: one cell whose payload declares 2^60 bytes.
	b = binary.AppendUvarint(header(0), 0)
	b = binary.AppendUvarint(b, 1)
	frames["cell-paylen-bomb"] = append(b, maxUvarint...)
	// key length bomb inside a removal.
	b = binary.AppendUvarint(header(0), 1)
	frames["keylen-bomb"] = append(b, maxUvarint...)
	// histogram nnz bomb: a real cell re-encoded with its sparse
	// nonzero-bin count replaced by a bomb would shift every later
	// byte; simplest hostile form is a cell payload that is just a
	// huge nnz declaration — DecodeCell fails in ReadKey first, so
	// instead craft a frame whose single cell payload length is valid
	// but whose content is all 0xff (decodes as garbage lengths).
	b = binary.AppendUvarint(header(0), 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 16)
	frames["cell-garbage"] = append(b, bytes.Repeat([]byte{0xff}, 16)...)
	// knowledge length bomb: flagKnowledge set, epoch 0, 2^60-byte blob.
	b = binary.AppendUvarint(header(flagKnowledge), 0)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, wirebuf.Zigzag(0))
	frames["knowledge-len-bomb"] = append(b, maxUvarint...)
	// knowledge blob that is not a valid snapshot.
	b = binary.AppendUvarint(header(flagKnowledge), 0)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, wirebuf.Zigzag(0))
	b = binary.AppendUvarint(b, 9)
	frames["knowledge-garbage"] = append(b, []byte("{not json")...)
	// oversized frame: over MaxGossipFrameBytes is rejected up front —
	// represent with a sliced header claim instead of allocating 128MB.

	// Well-formed cells whose tracks break the coverage invariant.
	cellFrame := func(payload []byte) []byte {
		b := binary.AppendUvarint(header(0), 0)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	// A raw sketch that fails Sketch.Valid (a NaN centroid mean).
	c := coverageCell(t)
	c.RawSketch.Flush()
	c.RawSketch.Centroids[0].Mean = math.NaN()
	frames["cell-invalid-sketch"] = cellFrame(cellPayload(t, c))
	// A cell carrying neither histogram: track flags 0x0C, then only
	// the two sketches.
	c = coverageCell(t)
	full := cellPayload(t, c)
	tail := len(c.RawHist.AppendBinary(nil)) + len(c.PuncturedHist.AppendBinary(nil)) +
		len(agg.AppendSketch(nil, c.RawSketch)) + len(agg.AppendSketch(nil, c.PuncturedSketch))
	noHists := append([]byte{}, full[:len(full)-tail-1]...)
	noHists = append(noHists, 0x0C)
	noHists = agg.AppendSketch(noHists, c.RawSketch)
	noHists = agg.AppendSketch(noHists, c.PuncturedSketch)
	frames["cell-no-hists"] = cellFrame(noHists)
	// A raw sketch covering 1 of the cell's 32 observations.
	c = coverageCell(t)
	c.RawSketch = agg.NewSketch(0)
	c.RawSketch.Add(float64(30 * time.Millisecond))
	frames["cell-subset-sketch"] = cellFrame(cellPayload(t, c))
	return frames
}

// coverageCell is a store-built cell of one 32-RTT session, some past
// the histogram range.
func coverageCell(t testing.TB) *ingest.Cell {
	t.Helper()
	st := ingest.NewStore(-1, 1)
	s := ingest.Summary{Device: "Phone H", Sent: 32, RTTs: make([]int64, 32)}
	for i := range s.RTTs {
		s.RTTs[i] = int64(time.Duration(i+1) * 20 * time.Millisecond)
	}
	if !st.Fold(&s, time.Millisecond, ingest.SourceLearned) {
		t.Fatal("fold refused")
	}
	return st.Snapshot()[0]
}

func cellPayload(t testing.TB, c *ingest.Cell) []byte {
	t.Helper()
	payload, err := ingest.AppendCell(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestHostileGossipFramesRejected(t *testing.T) {
	for name, frame := range hostileGossipFrames(t) {
		if _, err := DecodeDelta(frame); err == nil {
			t.Errorf("%s: hostile frame accepted", name)
		}
	}
	// The cap sentinel error is used for declared-length violations.
	if _, err := DecodeDelta(hostileGossipFrames(t)["removal-count-bomb"]); !errors.Is(err, wirebuf.ErrFrameTooBig) {
		t.Errorf("removal-count-bomb: want ErrFrameTooBig, got %v", err)
	}
}

// TestGenGossipCorpus regenerates the committed fuzz corpus under
// testdata/fuzz/FuzzDecodeGossipDelta when GEN_GOSSIP_CORPUS=1 —
// the same seeds FuzzDecodeGossipDelta adds programmatically, kept
// on disk so the CI fuzz smoke starts from every rejection path
// without rediscovering them.
func TestGenGossipCorpus(t *testing.T) {
	if os.Getenv("GEN_GOSSIP_CORPUS") == "" {
		t.Skip("set GEN_GOSSIP_CORPUS=1 to regenerate the committed corpus")
	}
	dir := "testdata/fuzz/FuzzDecodeGossipDelta"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(dir+"/seed-"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	valid, err := AppendDelta(nil, testDelta(t))
	if err != nil {
		t.Fatal(err)
	}
	write("valid", valid)
	flip := append([]byte{}, valid...)
	flip[len(flip)/3] ^= 0x40
	write("valid-flip", flip)
	noKnow, err := AppendDelta(nil, &Delta{NodeID: "n", BootID: "b", Epoch: 3,
		Removed: []ingest.Key{{Device: "gone"}}})
	if err != nil {
		t.Fatal(err)
	}
	write("no-knowledge", noKnow)
	for name, frame := range hostileGossipFrames(t) {
		write("hostile-"+name, frame)
	}
}

// FuzzDecodeGossipDelta fuzzes the gossip frame decoder: any input the
// decoder accepts must survive a re-encode → re-decode round trip with
// identical cells and counts (the idempotency the anti-entropy
// protocol depends on), every accepted cell must pass
// ingest.Cell.Validate and merge into a fresh cell, and no input may
// panic or over-allocate.
func FuzzDecodeGossipDelta(f *testing.F) {
	valid, err := AppendDelta(nil, testDelta(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	empty, err := AppendDelta(nil, &Delta{NodeID: "n", BootID: "b"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	for _, frame := range hostileGossipFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		frame, err := AppendDelta(nil, d)
		if err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		d2, err := DecodeDelta(frame)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		if len(d2.Cells) != len(d.Cells) || len(d2.Removed) != len(d.Removed) ||
			d2.Epoch != d.Epoch || d2.Reset != d.Reset || d2.NodeID != d.NodeID {
			t.Fatalf("round trip changed the delta: %+v != %+v", d2, d)
		}
		for i := range d.Cells {
			if d.Cells[i].Key != d2.Cells[i].Key || d.Cells[i].Sessions != d2.Cells[i].Sessions {
				t.Fatalf("cell %d changed across round trip", i)
			}
		}
		// Every accepted cell holds the coverage invariant and merges
		// into a fresh cell, as a replica does in a fleet query.
		for i, c := range d.Cells {
			if err := c.Validate(); err != nil {
				t.Fatalf("accepted cell %d fails validation: %v", i, err)
			}
		}
		merged, err := ingest.NewStore(-1, 1).QueryWith(ingest.RollupCell, d.Cells)
		if err != nil {
			t.Fatalf("accepted cells do not merge into fresh cells: %v", err)
		}
		for _, c := range merged {
			if err := c.Validate(); err != nil {
				t.Fatalf("merged cell fails validation: %v", err)
			}
		}
	})
}

// goldenDelta is testDelta plus cells whose histograms reach both ends
// of the geometry, hold out-of-range mass, or were merged from
// straddling spans, so the pinned bytes cover every shape of stored
// span.
func goldenDelta(t testing.TB) *Delta {
	t.Helper()
	d := testDelta(t)
	st := ingest.NewStore(-1, 1)
	ms := int64(time.Millisecond)
	for i, rtts := range [][]int64{
		{0, 499*ms + ms/2, 250 * ms},           // first and last bin
		{-ms, 2000 * ms, 40 * ms, 40*ms + 1},   // under, over, one bin twice
		{400 * ms, 401 * ms, 5 * ms, 6 * ms},   // two separate spans
		{120 * ms, 3 * ms, 480 * ms, 121 * ms}, // straddles the one above
	} {
		s := ingest.Summary{Device: "Phone C", Group: "wifi-3", Scenario: fmt.Sprint("edge-", i%3), Sent: len(rtts), RTTs: rtts}
		if !st.Fold(&s, time.Duration(ms), ingest.SourceGlobal) {
			t.Fatal("fold refused")
		}
	}
	d.Cells = append(d.Cells, st.Snapshot()...)
	return d
}

// TestGossipFrameGolden pins the ACMG frame and the cells' JSON for a
// fixed set of cells byte for byte: a change to how histograms are
// stored must not move either encoding. The digests were recorded when
// histograms stored every bin densely.
func TestGossipFrameGolden(t *testing.T) {
	const (
		wantFrame = "35b298017e65446e77ee9eb8f46cdaaf6fcb774b96c521580fe6ab1fdd995588"
		wantJSON  = "f0900e277e8e497b5ff2c87e3ad5d636667ba934d723a18af7fd032b87c719e5"
	)
	d := goldenDelta(t)
	frame, err := AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	js := cellsJSON(t, d.Cells)
	gotFrame, gotJSON := fmt.Sprintf("%x", sha256.Sum256(frame)), fmt.Sprintf("%x", sha256.Sum256([]byte(js)))
	if gotFrame != wantFrame {
		t.Errorf("ACMG frame digest %s, want %s", gotFrame, wantFrame)
	}
	if gotJSON != wantJSON {
		t.Errorf("cells JSON digest %s, want %s", gotJSON, wantJSON)
	}
	// A decoded frame re-encodes to the same bytes.
	back, err := DecodeDelta(frame)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AppendDelta(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Error("decoded frame re-encodes to different bytes")
	}
}
