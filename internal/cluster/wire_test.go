package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/ingest"
	"repro/internal/puncture"
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
// (Cell.Epoch is json-omitted, sketches marshal in flushed form).
func cellsJSON(t testing.TB, cells []*ingest.Cell) string {
	t.Helper()
	sorted := append([]*ingest.Cell(nil), cells...)
	ingest.SortCells(sorted)
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
		b = appendString(b, "n")
		b = appendString(b, "b")
		return binary.AppendUvarint(b, zigzag(1))
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
	// huge nnz declaration — decodeCell fails in key() first, so
	// instead craft a frame whose single cell payload length is valid
	// but whose content is all 0xff (decodes as garbage lengths).
	b = binary.AppendUvarint(header(0), 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 16)
	frames["cell-garbage"] = append(b, bytes.Repeat([]byte{0xff}, 16)...)
	// knowledge length bomb: flagKnowledge set, epoch 0, 2^60-byte blob.
	b = binary.AppendUvarint(header(flagKnowledge), 0)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, zigzag(0))
	frames["knowledge-len-bomb"] = append(b, maxUvarint...)
	// knowledge blob that is not a valid snapshot.
	b = binary.AppendUvarint(header(flagKnowledge), 0)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, zigzag(0))
	b = binary.AppendUvarint(b, 9)
	frames["knowledge-garbage"] = append(b, []byte("{not json")...)
	// oversized frame: over MaxGossipFrameBytes is rejected up front —
	// represent with a sliced header claim instead of allocating 128MB.
	return frames
}

func TestHostileGossipFramesRejected(t *testing.T) {
	for name, frame := range hostileGossipFrames(t) {
		if _, err := DecodeDelta(frame); err == nil {
			t.Errorf("%s: hostile frame accepted", name)
		}
	}
	// The cap sentinel error is used for declared-length violations.
	if _, err := DecodeDelta(hostileGossipFrames(t)["removal-count-bomb"]); !errors.Is(err, ErrFrameTooBig) {
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
// protocol depends on), and no input may panic or over-allocate.
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
	})
}

// TestDecodedHistMergesLikeDense: the ACMG decoder rebuilds histograms
// bin by bin through agg.Hist.SetCount, which keeps the occupancy bound
// the bounded Merge/N/Quantile loops rely on. A decoded Hist merged in
// either direction with a dense (literal-built) Hist must give exactly
// the dense result.
func TestDecodedHistMergesLikeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := func(h *agg.Hist) *agg.Hist {
		return &agg.Hist{Lo: h.Lo, Hi: h.Hi, Counts: append([]int64(nil), h.Counts...), Under: h.Under, Over: h.Over}
	}
	random := func() *agg.Hist {
		h := agg.NewDurationHist()
		for n := rng.Intn(5); n > 0; n-- {
			h.AddN(time.Duration(rng.Int63n(int64(510*time.Millisecond)))-5*time.Millisecond, 1+rng.Int63n(3))
		}
		return h
	}
	for trial := 0; trial < 500; trial++ {
		a, b := random(), random()
		dec, err := (&gossipCursor{buf: appendHist(nil, a)}).hist()
		if err != nil {
			t.Fatal(err)
		}
		want := dense(a)
		for i, c := range b.Counts {
			want.Counts[i] += c
		}
		want.Under += b.Under
		want.Over += b.Over

		into := dense(b) // decoded merged into a dense Hist
		if err := into.Merge(dec); err != nil {
			t.Fatal(err)
		}
		from := dec.Clone() // a dense Hist merged into the decoded one
		if err := from.Merge(dense(b)); err != nil {
			t.Fatal(err)
		}
		for _, got := range []*agg.Hist{into, from} {
			if fmt.Sprint(got.Counts, got.Under, got.Over) != fmt.Sprint(want.Counts, want.Under, want.Over) {
				t.Fatalf("trial %d: merged counts diverge from dense", trial)
			}
			if got.N() != want.N() {
				t.Fatalf("trial %d: N = %d, want %d", trial, got.N(), want.N())
			}
			for _, q := range []float64{0.01, 0.5, 0.99} {
				if got.Quantile(q) != want.Quantile(q) {
					t.Fatalf("trial %d: Quantile(%v) = %v, want %v", trial, q, got.Quantile(q), want.Quantile(q))
				}
			}
		}
		if dec.N() != a.N() || dec.Quantile(0.5) != a.Quantile(0.5) {
			t.Fatalf("trial %d: decoded hist answers differently from its source", trial)
		}
	}
}
