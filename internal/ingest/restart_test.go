package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/puncture"
)

// aggSketchOf builds a device-side sketch over the given RTTs (ns).
func aggSketchOf(values ...int64) *agg.Sketch {
	sk := agg.NewSketch(0)
	for _, v := range values {
		sk.Add(float64(v))
	}
	sk.Flush()
	return sk
}

func postBatch(t *testing.T, url string, batch []Summary) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, batch); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
}

func snapshotBytes(t *testing.T, st *puncture.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestdRestartRoundTrip is the persistence e2e: a daemon learns
// per-model overheads from attributing traffic, is killed (graceful
// drain → final snapshot), reboots from the same -profiles file, and
// must serve the learned table bit-for-bit identically — and keep
// correcting blind traffic from it without relearning.
func TestIngestdRestartRoundTrip(t *testing.T) {
	path := t.TempDir() + "/profiles.json"
	cfg := Config{Window: -1, ProfilesPath: path, ProfilesInterval: -1}

	s1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := int64(time.Millisecond)
	var batch []Summary
	for i := 0; i < 40; i++ {
		batch = append(batch, Summary{
			Device: fmt.Sprintf("Phone %d", i%5), Chipset: fmt.Sprintf("CHIP%d", i%2),
			Sent: 1, RTTs: []int64{40 * ms},
			LayersOK:       true,
			UserOverheadNS: 2*ms + int64(i),
			SDIOOverheadNS: 3 * ms,
			PSMInflationNS: 5 * ms,
		})
	}
	postBatch(t, s1.URL(), batch)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	before := snapshotBytes(t, s1.Puncturer().Store())

	// Reboot from the snapshot the dead daemon left behind.
	s2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	after := snapshotBytes(t, s2.Puncturer().Store())
	if !bytes.Equal(before, after) {
		t.Fatalf("learned table changed across restart:\nbefore %d bytes\nafter  %d bytes", len(before), len(after))
	}

	// The rebooted daemon corrects blind summaries from the restored
	// knowledge, without any attributing session since boot.
	corr, src := s2.Puncturer().Correction(&Summary{Device: "Phone 1", Sent: 1})
	if src != SourceLearned || corr <= 0 {
		t.Fatalf("restored knowledge not serving: %v/%v", corr, src)
	}

	// /v1/profiles serves the restored table.
	resp, err := http.Get(s2.URL() + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var profs ProfilesResponse
	if err := json.NewDecoder(resp.Body).Decode(&profs); err != nil {
		t.Fatal(err)
	}
	if profs.Models != 5 || len(profs.Profiles) != 5 {
		t.Fatalf("/v1/profiles: %d models, %d profiles", profs.Models, len(profs.Profiles))
	}
	if profs.Profiles[0].Sessions() != 8 {
		t.Fatalf("profile lost sessions: %+v", profs.Profiles[0])
	}
}

// TestProfilesDeltaMerge is the fleet→ingest knowledge path: a profile
// delta POSTed to /v1/profiles merges into the live store and
// immediately serves corrections.
func TestProfilesDeltaMerge(t *testing.T) {
	s, err := Start(Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	ms := int64(time.Millisecond)
	delta := puncture.NewStore(0)
	delta.RecordAttribution("Fleet Phone", "BCM4339", 2*ms, 3*ms, 5*ms)
	var buf bytes.Buffer
	if err := delta.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.URL()+"/v1/profiles", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("profile merge: %s", resp.Status)
	}

	corr, src := s.Puncturer().Correction(&Summary{Device: "Fleet Phone", Sent: 1})
	if src != SourceLearned || corr != 10*time.Millisecond {
		t.Fatalf("merged delta not serving: %v/%v", corr, src)
	}
	// Family knowledge traveled too.
	corr, src = s.Puncturer().Correction(&Summary{Device: "Unseen", Chipset: "BCM4339", Sent: 1})
	if src != SourceFamily || corr != 10*time.Millisecond {
		t.Fatalf("family via delta: %v/%v", corr, src)
	}

	// A malformed delta is rejected whole.
	resp2, err := http.Post(s.URL()+"/v1/profiles", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed delta: %s", resp2.Status)
	}
}

// TestProfilesPostRefusesTrailingData: a POSTed delta is one snapshot.
// A valid snapshot followed by a second value and junk is refused with
// 400 and counted as a bad batch, and none of it reaches the store.
func TestProfilesPostRefusesTrailingData(t *testing.T) {
	s, err := Start(Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	ms := int64(time.Millisecond)
	delta := puncture.NewStore(0)
	delta.RecordAttribution("Fleet Phone", "BCM4339", 2*ms, 3*ms, 5*ms)
	var body, before, after bytes.Buffer
	if err := delta.WriteSnapshot(&body); err != nil {
		t.Fatal(err)
	}
	body.WriteString(`{"version": 99} garbage`)
	if err := s.Puncturer().Store().WriteSnapshot(&before); err != nil {
		t.Fatal(err)
	}
	bad := s.MetricsSnapshot()["bad_batches"]

	resp, err := http.Post(s.URL()+"/v1/profiles", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("snapshot with trailing data: %s", resp.Status)
	}
	if got := s.MetricsSnapshot()["bad_batches"]; got != bad+1 {
		t.Fatalf("bad_batches %d, want %d", got, bad+1)
	}
	if err := s.Puncturer().Store().WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("refused delta changed the store:\n%s", after.Bytes())
	}
}

// TestStartNamesRefusedProfilesOnce: a daemon refusing its -profiles
// file names the path and the puncture package once each.
func TestStartNamesRefusedProfilesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Start(Config{ProfilesPath: path})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("junk knowledge file accepted")
	}
	if msg := err.Error(); strings.Count(msg, path) != 1 || strings.Count(msg, "puncture:") != 1 {
		t.Errorf("want the path and puncture: once each: %q", msg)
	}
}

// TestOverlearnedCorrectionClampsAtZero pins the ≥0 clamp on both fold
// paths: a learned correction larger than every RTT in a session must
// clamp punctured observations at zero — raw-RTT folds and device-
// posted sketch folds (Sketch.Shifted) alike.
func TestOverlearnedCorrectionClampsAtZero(t *testing.T) {
	st := NewStore(-1, 1)
	ms := int64(time.Millisecond)
	corr := 50 * time.Millisecond // way above the 10ms RTTs below

	raw := Summary{Device: "D", Sent: 4, RTTs: []int64{10 * ms, 9 * ms, 8 * ms, 7 * ms}}
	if !st.Fold(&raw, corr, SourceLearned) {
		t.Fatal("fold refused")
	}

	sk := Summary{Device: "S", Sent: 3}
	sk.Sketch = aggSketchOf(10*ms, 9*ms, 8*ms)
	if !st.Fold(&sk, corr, SourceLearned) {
		t.Fatal("sketch fold refused")
	}

	for _, c := range st.Snapshot() {
		if c.Punctured.MinV < 0 || c.Punctured.Mean < 0 {
			t.Fatalf("%s: negative punctured moments: min %g mean %g", c.Key.Device, c.Punctured.MinV, c.Punctured.Mean)
		}
		if c.PuncturedSketch.MinV < 0 {
			t.Fatalf("%s: negative punctured sketch min %g", c.Key.Device, c.PuncturedSketch.MinV)
		}
		if q := c.PuncturedSketch.Quantile(0.01); q < 0 {
			t.Fatalf("%s: negative punctured quantile %g", c.Key.Device, q)
		}
		if c.PuncturedHist.Under != 0 {
			t.Fatalf("%s: punctured mass below histogram range: %d", c.Key.Device, c.PuncturedHist.Under)
		}
	}
}

// TestStreamResumeAfterRestart: a stream client that resumes with a
// cursor from before a daemon restart holds a cursor ahead of the
// restarted store's epoch. Its rows are stale and the rows folded
// since the restart carry epochs it has already passed, so the store
// must answer with a full reset snapshot — at every rollup, and over
// the ?poll=1 endpoint — exactly as a gossip peer's CellDeltasSince
// does.
func TestStreamResumeAfterRestart(t *testing.T) {
	st := NewStore(-1, 4)
	for _, s := range benchBatch(6, 3) {
		if !st.Fold(&s, 0, SourceNone) {
			t.Fatal("fold refused")
		}
	}
	ahead := st.Epoch() + 1000
	if d := st.CellDeltasSince(ahead); !d.Reset || len(d.Cells) == 0 {
		t.Fatalf("gossip delta for a future cursor: reset=%v cells=%d", d.Reset, len(d.Cells))
	}
	for _, r := range []Rollup{RollupCell, RollupGroup, RollupDevice} {
		ev, err := st.DeltasSince(ahead, r)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Reset || len(ev.Cells) == 0 || ev.Epoch != st.Epoch() {
			t.Errorf("by=%s: future cursor answered reset=%v with %d cells at epoch %d (store %d)",
				r, ev.Reset, len(ev.Cells), ev.Epoch, st.Epoch())
		}
	}

	s := startTestServer(t, Config{Window: -1, StreamInterval: -1})
	postBatch(t, s.URL(), benchBatch(5, 3))
	waitFolded(t, s, 5)
	resp, err := http.Get(fmt.Sprintf("%s/v1/stream?poll=1&by=group&since=%d&wait=50ms",
		s.URL(), s.Store().Epoch()+1000))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ev StreamEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if !ev.Reset || len(ev.Cells) == 0 {
		t.Fatalf("poll with a future cursor: reset=%v with %d cells", ev.Reset, len(ev.Cells))
	}
}
