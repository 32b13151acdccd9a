package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/fleet"
	"repro/internal/puncture"
	"repro/internal/stats"
)

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// waitFolded blocks until the server has folded n summaries (the fold
// stage is async behind the batch queue).
func waitFolded(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.metrics.FoldedSummaries.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d folded summaries (have %d)", n, s.metrics.FoldedSummaries.Load())
}

// TestEndToEndDeterminism is the subsystem's acceptance check: a seeded
// campaign streamed through a loopback ingestd yields queried per-group
// aggregates equal to the offline fleet.RunContext report for the same seed —
// session/probe counts and histograms exact, means within float
// rounding. The same check runs once per wire (JSON lines, HTTP binary,
// raw TCP binary): every transport must carry the records losslessly.
func TestEndToEndDeterminism(t *testing.T) {
	sc, ok := fleet.ScenarioByName("device-mix")
	if !ok {
		t.Fatal("device-mix scenario missing")
	}
	params := fleet.Params{Sessions: 48, Seed: 42, Probes: 15}
	campaign := fleet.Campaign{
		Name:     "e2e",
		Scenario: "device-mix",
		Seed:     42,
		Workers:  4,
		Sessions: sc.Build(params),
	}

	// Ground truth: the same seeded campaign run offline.
	offline, err := fleet.RunContext(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Errors != 0 {
		t.Fatalf("offline campaign errors: %v", offline.FirstErrors)
	}

	for _, wire := range []string{WireJSON, WireBinary, WireTCP} {
		t.Run(wire, func(t *testing.T) {
			s := startTestServer(t, Config{Window: -1, QueueDepth: 64, TCPAddr: "127.0.0.1:0"})
			url := s.URL()
			if wire == WireTCP {
				url = s.TCPAddr()
			}
			lg := &LoadGen{URL: url, Wire: wire, BatchSize: 7, TimeMS: 1}
			defer lg.Close()
			streamed, err := lg.StreamCampaign(context.Background(), campaign)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Errors != 0 {
				t.Fatalf("streamed campaign errors: %v", streamed.FirstErrors)
			}
			if lg.Sent() != offline.Sessions {
				t.Fatalf("posted %d summaries, want %d", lg.Sent(), offline.Sessions)
			}
			waitFolded(t, s, offline.Sessions)

			// The acceptance criteria live in VerifyAgainstReport — the same
			// checker cmd/acutemon-ingestd's "verified" line relies on.
			mismatches, maxMeanRel := VerifyAgainstReport(s.Store(), offline)
			for _, m := range mismatches {
				t.Error(m)
			}
			if maxMeanRel > 1e-9 {
				t.Errorf("max mean drift %g exceeds float tolerance", maxMeanRel)
			}
			// Every fleet session attributes its layers, so the punctured track
			// must sit at or below raw in every group.
			cells, err := s.Store().Query(RollupGroup)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != len(offline.Groups) {
				t.Fatalf("%d ingested groups, offline has %d", len(cells), len(offline.Groups))
			}
			for _, c := range cells {
				if c.Punctured.Mean > c.Raw.Mean {
					t.Errorf("%s: punctured mean %v above raw %v", c.Key.Group, c.Punctured.Mean, c.Raw.Mean)
				}
			}
		})
	}
}

func TestPuncturerSources(t *testing.T) {
	st := puncture.NewStore(0)
	p := NewPuncturerStore(st)

	attributed := Summary{
		Device: "Google Nexus 5", Chipset: "BCM4339",
		Sent: 2, RTTs: []int64{int64(40 * time.Millisecond)},
		LayersOK:       true,
		UserOverheadNS: int64(2 * time.Millisecond),
		SDIOOverheadNS: int64(3 * time.Millisecond),
		PSMInflationNS: int64(5 * time.Millisecond),
	}
	corr, src := p.Correction(&attributed)
	if src != SourceReported || corr != 10*time.Millisecond {
		t.Fatalf("attributed: %v/%v", corr, src)
	}

	blind := Summary{Device: "Google Nexus 5", Sent: 1, RTTs: []int64{int64(40 * time.Millisecond)}}
	corr, src = p.Correction(&blind)
	if src != SourceLearned || corr != 10*time.Millisecond {
		t.Fatalf("learned: %v/%v", corr, src)
	}

	// An unknown model reporting a known chipset rides the family rung;
	// with nothing but the model name it falls to the global prior —
	// both rungs learned from the attributing Nexus 5 session above.
	sibling := Summary{Device: "Brand New Handset", Chipset: "BCM4339", Sent: 1}
	if corr, src = p.Correction(&sibling); src != SourceFamily || corr != 10*time.Millisecond {
		t.Fatalf("family: %v/%v", corr, src)
	}
	unknown := Summary{Device: "Mystery Phone", Sent: 1}
	if corr, src = p.Correction(&unknown); src != SourceGlobal || corr != 10*time.Millisecond {
		t.Fatalf("global: %v/%v", corr, src)
	}

	// On an empty store nothing corrects at all.
	empty := NewPuncturerStore(nil)
	if corr, src = empty.Correction(&unknown); src != SourceNone || corr != 0 {
		t.Fatalf("empty store: %v/%v", corr, src)
	}

	if p.Store().Calibrated("Google Nexus 5") {
		t.Fatal("model should not be calibrated yet")
	}
	if err := st.RecordCalibration(puncture.CalEntry{
		Model: "Google Nexus 5", Tip: 200 * time.Millisecond, Tis: 300 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond, Samples: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if !p.Store().Calibrated("Google Nexus 5") {
		t.Fatal("calibration not visible through puncturer")
	}

	profs := p.Store().Profiles()
	if len(profs) != 1 || profs[0].Model != "Google Nexus 5" || profs[0].User.N != 1 {
		t.Fatalf("learned table: %+v", profs)
	}
}

func TestStoreWindowingAndRollups(t *testing.T) {
	st := NewStore(time.Minute, 4)
	mk := func(device, group string, tms int64, rtt time.Duration) *Summary {
		return &Summary{Device: device, Group: group, TimeMS: tms, Sent: 1, RTTs: []int64{int64(rtt)}}
	}
	st.Fold(mk("A", "g1", 10_000, 30*time.Millisecond), 0, SourceNone)
	st.Fold(mk("A", "g1", 59_999, 40*time.Millisecond), 0, SourceNone)
	st.Fold(mk("A", "g1", 60_000, 50*time.Millisecond), 0, SourceNone) // next window
	st.Fold(mk("B", "g1", 10_000, 60*time.Millisecond), 0, SourceNone)
	st.Fold(mk("B", "g2", 10_000, 70*time.Millisecond), 0, SourceNone)

	if got := len(st.Snapshot()); got != 4 {
		t.Fatalf("cells: %d != 4", got)
	}
	byGroup, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(byGroup) != 2 || byGroup[0].Sessions != 4 || byGroup[1].Sessions != 1 {
		t.Fatalf("group rollup: %+v", byGroup)
	}
	byDevice, err := st.Query(RollupDevice)
	if err != nil {
		t.Fatal(err)
	}
	if len(byDevice) != 2 || byDevice[0].Sessions != 3 || byDevice[1].Sessions != 2 {
		t.Fatalf("device rollup: %d cells", len(byDevice))
	}
	byWindow, err := st.Query(RollupWindow)
	if err != nil {
		t.Fatal(err)
	}
	if len(byWindow) != 2 || byWindow[0].Key.WindowMS != 0 || byWindow[1].Key.WindowMS != 60_000 {
		t.Fatalf("window rollup: %+v", byWindow)
	}
	if _, err := ParseRollup("nope"); err == nil {
		t.Fatal("expected rollup parse error")
	}
}

// TestStoreCellCapAndCompact covers the two memory bounds: the
// distinct-cell cap (cardinality abuse) and window retention
// compaction (benign long-running growth).
func TestStoreCellCapAndCompact(t *testing.T) {
	st := NewStore(time.Minute, 2)
	st.SetMaxCells(2)
	mk := func(device string, tms int64) *Summary {
		return &Summary{Device: device, TimeMS: tms, Sent: 1, RTTs: []int64{int64(30 * time.Millisecond)}}
	}
	if !st.Fold(mk("A", 1), 0, SourceNone) || !st.Fold(mk("B", 1), 0, SourceNone) {
		t.Fatal("folds under the cap must succeed")
	}
	if st.Fold(mk("C", 1), 0, SourceNone) {
		t.Fatal("third distinct key must be refused at cap 2")
	}
	if !st.Fold(mk("A", 2), 0, SourceNone) {
		t.Fatal("existing cells must keep folding at the cap")
	}
	if st.Cells() != 2 || st.Dropped() != 1 {
		t.Fatalf("cells=%d dropped=%d", st.Cells(), st.Dropped())
	}

	// Without compaction nothing can be reclaimed: a later window for
	// an existing device is a new cell — also refused at the cap.
	if st.Fold(mk("A", 61_000), 0, SourceNone) {
		t.Fatal("new-window cell must be refused at the cap")
	}

	// Retention: both live cells sit in window 0 (closes at 60s).
	st.EnableCompaction(10 * time.Minute)
	if n, _ := st.Compact(59_999); n != 0 {
		t.Fatalf("compacted %d cells before the window closed", n)
	}
	if n, sessions := st.Compact(60_000); n != 2 || sessions != 3 {
		t.Fatalf("compacted %d cells (%d sessions), want 2 (3)", n, sessions)
	}
	if st.Cells() != 0 || st.RollupCells() != 2 {
		t.Fatalf("cells=%d rollups=%d after compaction", st.Cells(), st.RollupCells())
	}
	// Capacity freed by compaction is reusable.
	if !st.Fold(mk("C", 61_000), 0, SourceNone) {
		t.Fatal("fold after compaction must succeed")
	}

	// Unwindowed stores never compact: the single cell is deliberate.
	flat := NewStore(0, 1)
	flat.EnableCompaction(time.Minute)
	flat.Fold(mk("A", 1), 0, SourceNone)
	if n, _ := flat.Compact(1 << 60); n != 0 {
		t.Fatalf("unwindowed store compacted %d cells", n)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	know := puncture.NewStore(0)
	if err := know.RecordCalibration(puncture.CalEntry{
		Model: "Google Nexus 5", Tip: 200 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	s := startTestServer(t, Config{Window: -1, Profiles: know})

	lg := &LoadGen{URL: s.URL(), TimeMS: 1}
	batch := []Summary{
		{
			Device: "Google Nexus 5", Sent: 2, Lost: 1,
			RTTs: []int64{int64(40 * time.Millisecond)}, LayersOK: true,
			UserOverheadNS: int64(2 * time.Millisecond), SDIOOverheadNS: int64(3 * time.Millisecond),
			PSMInflationNS: int64(5 * time.Millisecond), PSMActive: true,
		},
		{Device: "HTC One", Sent: 1, RTTs: []int64{int64(55 * time.Millisecond)}},
	}
	if err := lg.Send(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 2)

	get := func(path string) (int, string) {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/stats?by=device")
	if code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats JSON: %v", err)
	}
	if len(stats.Cells) != 2 || stats.Cells[0].Key.Device != "Google Nexus 5" {
		t.Fatalf("/stats cells: %+v", stats.Cells)
	}
	if got := stats.Cells[0].Punctured.MeanMS; math.Abs(got-30) > 0.01 {
		t.Fatalf("punctured mean %.3f ms, want 30", got)
	}
	if got := stats.Cells[0].Raw.MeanMS; math.Abs(got-40) > 0.01 {
		t.Fatalf("raw mean %.3f ms, want 40", got)
	}

	code, body = get("/stats?format=table")
	if code != http.StatusOK || !strings.Contains(body, "punct mean") {
		t.Fatalf("/stats table: %d %q", code, body)
	}

	code, body = get("/v1/profiles")
	if code != http.StatusOK {
		t.Fatalf("/v1/profiles: %d", code)
	}
	var profiles ProfilesResponse
	if err := json.Unmarshal([]byte(body), &profiles); err != nil {
		t.Fatal(err)
	}
	var calibrated, learned int
	for _, dp := range profiles.Profiles {
		if dp.Calibrated() {
			calibrated++
		}
		if dp.Sessions() > 0 {
			learned++
		}
	}
	if calibrated != 1 || learned != 1 {
		t.Fatalf("/v1/profiles: %d calibrated, %d learned", calibrated, learned)
	}

	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", code, body)
	}

	if code, _ := get("/stats?by=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus rollup: %d", code)
	}
}

// TestBackpressure exercises the credit-pool path white-box: with every
// batch credit held, a post must shed with 503 + Retry-After, not block.
func TestBackpressure(t *testing.T) {
	s := &Server{cfg: Config{QueueDepth: 1}, store: NewStore(0, 1), punc: NewPuncturerStore(nil),
		pipes: []chan pipeJob{make(chan pipeJob, 1)}, credits: make(chan struct{}, 1)}
	s.cfg.fill()
	s.credits <- struct{}{} // exhaust the credit pool; no fold workers running

	var buf bytes.Buffer
	EncodeBatch(&buf, []Summary{{Device: "Google Nexus 5", Sent: 1, RTTs: []int64{1000}}})
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", &buf)
	rec := httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full queue: %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	if s.metrics.RejectedBatches.Load() != 1 {
		t.Fatalf("rejected counter: %d", s.metrics.RejectedBatches.Load())
	}

	// Malformed batch → 400.
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader("{not json"))
	rec = httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad batch: %d", rec.Code)
	}

	// Draining → 503 before reading the body.
	s.draining.Store(true)
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(""))
	rec = httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d", rec.Code)
	}
}

// TestGracefulDrain posts batches and immediately shuts down: every
// accepted summary must be folded before Shutdown returns.
func TestGracefulDrain(t *testing.T) {
	s, err := Start(Config{Window: -1, FoldWorkers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	lg := &LoadGen{URL: s.URL(), TimeMS: 1, BatchSize: 10}
	total := 0
	for i := 0; i < 20; i++ {
		batch := make([]Summary, 10)
		for j := range batch {
			batch[j] = Summary{Device: "Google Nexus 5", Sent: 1, RTTs: []int64{int64(30 * time.Millisecond)}}
		}
		if err := lg.Send(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if folded := s.metrics.FoldedSummaries.Load(); folded != int64(total) {
		t.Fatalf("folded %d of %d accepted summaries after drain", folded, total)
	}
	cells := s.Store().Snapshot()
	if len(cells) != 1 || cells[0].Sessions != int64(total) {
		t.Fatalf("store after drain: %+v", cells)
	}
	// Post-shutdown posts are refused.
	if err := (&LoadGen{URL: s.URL(), Retries: -1}).Send(context.Background(),
		[]Summary{{Device: "X", Sent: 1}}); err == nil {
		t.Fatal("expected post-shutdown send to fail")
	}
}

// TestReplayReport replays a recorded campaign report through the wire
// and checks counts exactly and the distribution to bucket resolution.
func TestReplayReport(t *testing.T) {
	sc, _ := fleet.ScenarioByName("baseline")
	campaign := fleet.Campaign{
		Name: "replay", Scenario: "baseline", Seed: 7, Workers: 2,
		Sessions: sc.Build(fleet.Params{Sessions: 12, Seed: 7, Probes: 10}),
	}
	rep, err := fleet.RunContext(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("campaign errors: %v", rep.FirstErrors)
	}

	s := startTestServer(t, Config{Window: -1})
	lg := &LoadGen{URL: s.URL(), TimeMS: 1, BatchSize: 5}
	posted, err := lg.ReplayReport(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if int64(posted) != rep.Sessions {
		t.Fatalf("replayed %d sessions, want %d", posted, rep.Sessions)
	}
	waitFolded(t, s, rep.Sessions)

	cells, err := s.Store().Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("groups: %d", len(cells))
	}
	c, g := cells[0], rep.Groups[0]
	if c.Sessions != g.Sessions || c.ProbesSent != g.ProbesSent || c.ProbesLost != g.ProbesLost {
		t.Fatalf("counts (%d,%d,%d) != (%d,%d,%d)",
			c.Sessions, c.ProbesSent, c.ProbesLost, g.Sessions, g.ProbesSent, g.ProbesLost)
	}
	if c.Raw.N != g.Du.N {
		t.Fatalf("raw samples %d != %d", c.Raw.N, g.Du.N)
	}
	bucket := float64(g.DuHist.BucketWidth())
	if diff := math.Abs(c.Raw.Mean - g.Du.Mean); diff > bucket {
		t.Fatalf("replayed mean off by %v ns (> one bucket %v)", diff, bucket)
	}
	for _, q := range []float64{0.5, 0.9} {
		if diff := math.Abs(float64(c.RawHist.Quantile(q) - g.DuHist.Quantile(q))); diff > bucket {
			t.Fatalf("q%.1f off by %vns", q, diff)
		}
	}
}

func TestDecodeBatchValidation(t *testing.T) {
	cases := []string{
		``,                                 // empty
		`{"device":"","sent":1}`,           // missing model
		`{"device":"X","sent":1,"lost":2}`, // lost > sent
		`{"device":"X","sent":1,"rtts_ns":[1,2]}`,                                         // more RTTs than sent
		`{"device":"X","sent":1,"rtts_ns":[-5]}`,                                          // negative RTT
		`{"device":"` + strings.Repeat("x", 201) + `","sent":1}`,                          // oversized key field
		`{"device":"X","sent":4611686018427387904}`,                                       // counter overflow
		`{"device":"X","sent":1,"background_sent":-1}`,                                    // negative counter
		`{"device":"X","sent":1,"emulated_rtt_ns":-1}`,                                    // negative path RTT
		`{"device":"X","sent":1,"layers_ok":true,"user_overhead_ns":4611686018427387904}`, // poison overhead
		`{"device":"X","sent":2,"rtts_ns":[1000],"sketch":{"compression":200,"count":1,"min":1000,"max":1000,"centroids":[{"m":1000,"w":1}]}}`, // both encodings
		`{"device":"X","sent":2,"sketch":{"compression":200,"count":2,"min":1000,"max":1000,"centroids":[{"m":1000,"w":1}]}}`,                  // count != weight sum
		`{"device":"X","sent":1,"sketch":{"compression":200,"count":2,"min":1000,"max":1000,"centroids":[{"m":1000,"w":2}]}}`,                  // more RTTs than sent
		`{"device":"X","sent":1,"sketch":{"compression":200,"count":1,"min":7e11,"max":7e11,"centroids":[{"m":7e11,"w":1}]}}`,                  // RTT out of range
		`{"device":"X","sent":1,"sketch":{"compression":1e9,"count":1,"min":1000,"max":1000,"centroids":[{"m":1000,"w":1}]}}`,                  // hostile compression
	}
	for _, c := range cases {
		if _, err := DecodeBatch(strings.NewReader(c), 0); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
	good := `{"device":"X","sent":2,"rtts_ns":[1000,2000]}
{"device":"Y","sent":1,"rtts_ns":[3000]}`
	batch, err := DecodeBatch(strings.NewReader(good), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[1].GroupLabel() != "Y" {
		t.Fatalf("batch: %+v", batch)
	}
	if _, err := DecodeBatch(strings.NewReader(good), 1); err == nil {
		t.Fatal("expected cap error")
	}
}

// TestHeavyTailStatsPercentiles is the bugfix's ingest-side acceptance
// check: with 10% of reported RTTs in 0.5–5 s, the /stats p99 (sketch-
// backed) lands within the documented rank-error bound of the exact
// retained sample, where the histogram path pins p99 at exactly 500 ms
// — and the saturation is surfaced, not silent.
func TestHeavyTailStatsPercentiles(t *testing.T) {
	s := startTestServer(t, Config{Window: -1})
	lg := &LoadGen{URL: s.URL(), TimeMS: 1, BatchSize: 50}

	rng := rand.New(rand.NewSource(33))
	var exact stats.Sample
	var batch []Summary
	const sessions, k = 200, 50
	for i := 0; i < sessions; i++ {
		rtts := make([]int64, k)
		for j := range rtts {
			var d time.Duration
			if rng.Intn(10) == 0 {
				d = 500*time.Millisecond + time.Duration(rng.Int63n(int64(4500*time.Millisecond)))
			} else {
				d = 10*time.Millisecond + time.Duration(rng.Int63n(int64(90*time.Millisecond)))
			}
			rtts[j] = int64(d)
			exact = append(exact, d)
		}
		batch = append(batch, Summary{Device: "Google Nexus 5", Sent: k, RTTs: rtts})
	}
	if err := lg.Send(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, sessions)

	resp, err := http.Get(s.URL() + "/stats?by=group")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 1 {
		t.Fatalf("cells: %d", len(sr.Cells))
	}
	cell := sr.Cells[0]
	if cell.Raw.HistOver == 0 {
		t.Fatal("histogram overflow not surfaced in /stats")
	}
	if cell.Raw.P99RankErr <= 0 || cell.Raw.P99RankErr > 0.01 {
		t.Fatalf("p99 rank-error bound %.4g not surfaced or implausible", cell.Raw.P99RankErr)
	}

	// The pre-sketch behavior, pinned: the cell's histogram still clamps.
	cells, err := s.Store().Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[0].RawHist.Quantile(0.99); got != 500*time.Millisecond {
		t.Fatalf("histogram p99 %v, want clamp at 500ms", got)
	}

	eps := cells[0].RawSketch.QuantileErrorBound(0.99)
	lo := stats.Millis(exact.Percentile(100 * (0.99 - eps)))
	hi := stats.Millis(exact.Percentile(100 * (0.99 + eps)))
	if cell.Raw.P99MS < lo || cell.Raw.P99MS > hi {
		t.Fatalf("/stats p99 %.2f ms outside exact rank bracket [%.2f, %.2f] ms", cell.Raw.P99MS, lo, hi)
	}
	if cell.Raw.P99MS < 1000 {
		t.Fatalf("/stats p99 %.2f ms still near the 500 ms histogram cap", cell.Raw.P99MS)
	}
}

// TestDeviceSketchSummaries exercises the wire option for devices that
// cannot ship raw RTTs: a posted sketch merges into the cell's raw
// track, and the punctured track is the same sketch shifted down by
// the session's correction, clamped at zero.
func TestDeviceSketchSummaries(t *testing.T) {
	st := NewStore(0, 1)
	sk := agg.NewSketch(0)
	rng := rand.New(rand.NewSource(35))
	var exact stats.Sample
	const n = 5000
	for i := 0; i < n; i++ {
		d := 20*time.Millisecond + time.Duration(rng.Int63n(int64(60*time.Millisecond)))
		sk.AddDuration(d)
		exact = append(exact, d)
	}
	sum := &Summary{Device: "Google Nexus 5", Sent: n, Sketch: sk}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	corr := 10 * time.Millisecond
	if !st.Fold(sum, corr, SourceLearned) {
		t.Fatal("fold refused")
	}

	cells := st.Snapshot()
	if len(cells) != 1 {
		t.Fatalf("cells: %d", len(cells))
	}
	c := cells[0]
	if c.RawSketch.Count != n || c.Punctured.N != n || c.Raw.N != n {
		t.Fatalf("counts: sketch=%d raw=%d punctured=%d, want %d", c.RawSketch.Count, c.Raw.N, c.Punctured.N, n)
	}
	if c.Raw.MinV != float64(exact.Min()) || c.Raw.MaxV != float64(exact.Max()) {
		t.Fatalf("raw min/max (%v,%v) != exact (%v,%v)", c.Raw.MinV, c.Raw.MaxV, exact.Min(), exact.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		eps := c.RawSketch.QuantileErrorBound(q)
		lo := exact.Percentile(100 * (q - eps))
		hi := exact.Percentile(100 * (q + eps))
		if got := c.RawSketch.QuantileDuration(q); got < lo || got > hi {
			t.Errorf("raw q=%g: %v outside [%v,%v]", q, got, lo, hi)
		}
		if got := c.PuncturedSketch.QuantileDuration(q); got < lo-corr-time.Millisecond || got > hi-corr+time.Millisecond {
			t.Errorf("punctured q=%g: %v not ~%v below raw bracket", q, got, corr)
		}
	}
	if math.Abs(c.Raw.Mean-c.Punctured.Mean-float64(corr)) > float64(time.Millisecond) {
		t.Fatalf("punctured mean %v not %v below raw %v", c.Punctured.Mean, corr, c.Raw.Mean)
	}

	// Sketch summaries fold through the live wire path too.
	s := startTestServer(t, Config{Window: -1})
	lg := &LoadGen{URL: s.URL(), TimeMS: 1}
	if err := lg.Send(context.Background(), []Summary{*sum}); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 1)
	live, err := s.Store().Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].RawSketch.Count != n {
		t.Fatalf("wire sketch fold: %+v", live)
	}
}

// TestReplayPreservesHeavyTail pins the replay path's quantile source:
// a recorded report whose sketch carries a heavy tail must replay with
// the tail intact, not reconstructed from the 500 ms-capped histogram.
func TestReplayPreservesHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	g := &fleet.GroupAggregate{Label: "heavy", DuHist: agg.NewDurationHist(), DuSketch: agg.NewSketch(0)}
	g.Sessions = 20
	g.ProbesSent = 20 * 100
	for i := 0; i < 2000; i++ {
		var d time.Duration
		if rng.Intn(10) == 0 {
			d = 500*time.Millisecond + time.Duration(rng.Int63n(int64(4500*time.Millisecond)))
		} else {
			d = 10*time.Millisecond + time.Duration(rng.Int63n(int64(90*time.Millisecond)))
		}
		g.Du.Add(float64(d))
		g.DuHist.Add(d)
		g.DuSketch.AddDuration(d)
	}
	rep := &fleet.Report{Name: "heavy", Scenario: "custom", Groups: []*fleet.GroupAggregate{g}}

	s := startTestServer(t, Config{Window: -1})
	lg := &LoadGen{URL: s.URL(), TimeMS: 1, BatchSize: 8}
	posted, err := lg.ReplayReport(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if int64(posted) != g.Sessions {
		t.Fatalf("posted %d, want %d", posted, g.Sessions)
	}
	waitFolded(t, s, g.Sessions)
	cells, err := s.Store().Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Raw.N != 2000 {
		t.Fatalf("replayed cells: %+v", cells)
	}
	// The whole point: p99 must survive the round trip, seconds past
	// the histogram cap the old hist-only reconstruction clamped to.
	origP99 := g.DuSketch.QuantileDuration(0.99)
	gotP99 := cells[0].RawSketch.QuantileDuration(0.99)
	if gotP99 < time.Second {
		t.Fatalf("replayed p99 %v collapsed to the histogram cap", gotP99)
	}
	if diff := gotP99 - origP99; diff < -200*time.Millisecond || diff > 200*time.Millisecond {
		t.Fatalf("replayed p99 %v far from recorded %v", gotP99, origP99)
	}
}

// TestReplayRefusesPreSketchReport: a recorded report whose group has
// no du_sketch (written before sketches existed) is refused with an
// error naming the group, before anything is posted — it is not
// replayed from the range-capped histogram.
func TestReplayRefusesPreSketchReport(t *testing.T) {
	ok := &fleet.GroupAggregate{Label: "sketched", Sessions: 1, ProbesSent: 4,
		DuHist: agg.NewDurationHist(), DuSketch: agg.NewSketch(0)}
	old := &fleet.GroupAggregate{Label: "pre-sketch", Sessions: 2, ProbesSent: 8,
		DuHist: agg.NewDurationHist()}
	for i := 0; i < 4; i++ {
		d := time.Duration(30+i) * time.Millisecond
		ok.Du.Add(float64(d))
		ok.DuHist.Add(d)
		ok.DuSketch.AddDuration(d)
		for _, d := range []time.Duration{d, d + time.Second} {
			old.Du.Add(float64(d))
			old.DuHist.Add(d)
		}
	}
	rep := &fleet.Report{Name: "old", Scenario: "custom", Groups: []*fleet.GroupAggregate{ok, old}}
	s := startTestServer(t, Config{Window: -1})
	lg := &LoadGen{URL: s.URL(), TimeMS: 1}
	posted, err := lg.ReplayReport(context.Background(), rep)
	if err == nil || !strings.Contains(err.Error(), `"pre-sketch"`) {
		t.Fatalf("ReplayReport = %d, %v; want an error naming group \"pre-sketch\"", posted, err)
	}
	if posted != 0 {
		t.Fatalf("posted %d summaries from a refused report", posted)
	}
}
