package puncture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
)

// update is one knowledge-store event: an attribution fold or a
// calibration record. The merge-law property tests fold streams of
// these into stores in different partitions and orders.
type update struct {
	model, chipset       string
	user, sdio, psm      int64
	cal                  bool
	tip, tis, warm, intv time.Duration
	samples              int
}

func (u update) apply(st *Store) {
	if u.cal {
		if err := st.RecordCalibration(CalEntry{
			Model: u.model, Chipset: u.chipset,
			Tip: u.tip, Tis: u.tis, Warmup: u.warm, Interval: u.intv, Samples: u.samples,
		}); err != nil {
			panic(err)
		}
		return
	}
	st.RecordAttribution(u.model, u.chipset, u.user, u.sdio, u.psm)
}

// streamFor draws a deterministic update stream over a small model
// census: mostly attributions, with at most one calibration per model
// (calibrations replace rather than fold, so only their set — not
// their order — can be partition-independent).
func streamFor(rng *rand.Rand, n int) []update {
	chipsets := []string{"BCM4339", "WCN3660", "BCM4330"}
	models := 2 + rng.Intn(10)
	calibrated := map[int]bool{}
	out := make([]update, 0, n)
	for len(out) < n {
		m := rng.Intn(models)
		u := update{
			model:   fmt.Sprintf("model-%02d", m),
			chipset: chipsets[m%len(chipsets)],
		}
		if !calibrated[m] && rng.Intn(10) == 0 {
			calibrated[m] = true
			u.cal = true
			u.tip = time.Duration(60+m) * time.Millisecond
			u.tis = 50 * time.Millisecond
			u.warm = 20 * time.Millisecond
			u.intv = 20 * time.Millisecond
			u.samples = 4 + m
		} else {
			u.user = int64(rng.NormFloat64()*float64(time.Millisecond) + float64(2*time.Millisecond))
			u.sdio = int64(rng.NormFloat64()*float64(time.Millisecond) + float64(3*time.Millisecond))
			u.psm = int64(rng.NormFloat64()*float64(5*time.Millisecond) + float64(8*time.Millisecond))
		}
		out = append(out, u)
	}
	return out
}

func foldStream(updates []update, shards int) *Store {
	st := NewStore(shards)
	for _, u := range updates {
		u.apply(st)
	}
	return st
}

// approxEq compares floats up to accumulation rounding.
func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b)+1)
}

func profilesEqual(t *testing.T, label string, a, b DeviceProfile) {
	t.Helper()
	if a.CalEntry != b.CalEntry {
		t.Errorf("%s: calibration %+v != %+v", label, a.CalEntry, b.CalEntry)
	}
	if a.Epoch != b.Epoch {
		t.Errorf("%s: epoch %d != %d", label, a.Epoch, b.Epoch)
	}
	moms := [3][2]struct {
		N    int64
		Mean float64
	}{
		{{a.User.N, a.User.Mean}, {b.User.N, b.User.Mean}},
		{{a.SDIO.N, a.SDIO.Mean}, {b.SDIO.N, b.SDIO.Mean}},
		{{a.PSM.N, a.PSM.Mean}, {b.PSM.N, b.PSM.Mean}},
	}
	for i, m := range moms {
		if m[0].N != m[1].N || !approxEq(m[0].Mean, m[1].Mean) {
			t.Errorf("%s: moment %d: (%d,%g) != (%d,%g)", label, i, m[0].N, m[0].Mean, m[1].N, m[1].Mean)
		}
	}
	if (a.Corr == nil) != (b.Corr == nil) {
		t.Fatalf("%s: sketch missing on one side", label)
	}
	if a.Corr != nil {
		if a.Corr.Count != b.Corr.Count || a.Corr.MinV != b.Corr.MinV || a.Corr.MaxV != b.Corr.MaxV {
			t.Errorf("%s: sketch count/extremes differ", label)
		}
		// Centroids differ with fold order; quantiles must agree within
		// the combined documented rank-error bound.
		for _, q := range []float64{0.5, 0.9, 0.99} {
			eps := a.Corr.QuantileErrorBound(q) + b.Corr.QuantileErrorBound(q)
			lo, hi := a.Corr.Quantile(q-eps), a.Corr.Quantile(q+eps)
			v := b.Corr.Quantile(q)
			slack := 1e-9*math.Abs(hi) + 1
			if v < lo-slack || v > hi+slack {
				t.Errorf("%s: sketch p%g %.3g outside [%.3g,%.3g]", label, q*100, v, lo, hi)
			}
		}
	}
}

// TestStoreMergeProperty is the tentpole invariant: a store folding the
// whole update stream equals (a) stores folding shuffled disjoint
// chunks merged in shuffled order and (b) a store absorbing the chunk
// stores' snapshots — counts and calibrations exactly, moments up to
// float rounding, sketch quantiles within the documented bound.
func TestStoreMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		stream := streamFor(rng, 50+rng.Intn(800))
		whole := foldStream(stream, 1+rng.Intn(8))

		k := 1 + rng.Intn(6)
		shuffled := append([]update(nil), stream...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		parts := make([]*Store, k)
		for i := range parts {
			parts[i] = NewStore(1 + rng.Intn(4))
		}
		for i, u := range shuffled {
			u.apply(parts[i%k])
		}

		merged := NewStore(3)
		order := rng.Perm(k)
		for _, i := range order {
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}

		if got, want := merged.Len(), whole.Len(); got != want {
			t.Fatalf("trial %d: %d profiles != %d", trial, got, want)
		}
		if got, want := merged.Epoch(), whole.Epoch(); got != want {
			t.Fatalf("trial %d: epoch %d != %d", trial, got, want)
		}
		wp, mp := whole.Profiles(), merged.Profiles()
		for i := range wp {
			profilesEqual(t, fmt.Sprintf("trial %d: %s", trial, wp[i].Model), wp[i], mp[i])
		}
		wf, mf := whole.Families(), merged.Families()
		if len(wf) != len(mf) {
			t.Fatalf("trial %d: %d families != %d", trial, len(mf), len(wf))
		}
		for i := range wf {
			if wf[i].Chipset != mf[i].Chipset || wf[i].Sessions() != mf[i].Sessions() ||
				!approxEq(wf[i].User.Mean, mf[i].User.Mean) {
				t.Errorf("trial %d: family %s diverged", trial, wf[i].Chipset)
			}
		}
		wg, mg := whole.Global(), merged.Global()
		if wg.Sessions() != mg.Sessions() || !approxEq(wg.User.Mean, mg.User.Mean) {
			t.Errorf("trial %d: global prior diverged: %d/%g vs %d/%g",
				trial, wg.Sessions(), wg.User.Mean, mg.Sessions(), mg.User.Mean)
		}
	}
}

// TestResolutionLadder walks every rung: reported is the caller's
// business; learned beats family beats global beats nothing.
func TestResolutionLadder(t *testing.T) {
	st := NewStore(0)

	if corr, src := st.Resolve("Google Nexus 5", ""); src != SourceNone || corr != 0 {
		t.Fatalf("empty store: %v/%v", corr, src)
	}

	// One attributing Nexus 5 session: 2+3+5 ms.
	ms := int64(time.Millisecond)
	st.RecordAttribution("Google Nexus 5", "BCM4339", 2*ms, 3*ms, 5*ms)

	if corr, src := st.Resolve("Google Nexus 5", ""); src != SourceLearned || corr != 10*time.Millisecond {
		t.Fatalf("learned: %v/%v", corr, src)
	}
	// Unknown model, same chipset family.
	if corr, src := st.Resolve("Galaxy Brand New", "BCM4339"); src != SourceFamily || corr != 10*time.Millisecond {
		t.Fatalf("family: %v/%v", corr, src)
	}
	// Unknown model, unknown family → global prior.
	if corr, src := st.Resolve("Mystery Phone", "UnknownChip"); src != SourceGlobal || corr != 10*time.Millisecond {
		t.Fatalf("global: %v/%v", corr, src)
	}
	if corr, src := st.Resolve("Mystery Phone", ""); src != SourceGlobal || corr != 10*time.Millisecond {
		t.Fatalf("global, no chipset: %v/%v", corr, src)
	}

	// A calibrated-but-never-attributing model resolves through its
	// profile's chipset to the family rung.
	if err := st.RecordCalibration(CalEntry{
		Model: "Nexus 4", Chipset: "BCM4339",
		Tip: 200 * time.Millisecond, Tis: 300 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond, Samples: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if corr, src := st.Resolve("Nexus 4", ""); src != SourceFamily || corr != 10*time.Millisecond {
		t.Fatalf("calibrated model via family: %v/%v", corr, src)
	}

	counts := st.ResolvedBySource()
	if counts["learned"] != 1 || counts["family"] != 2 || counts["global"] != 2 || counts["none"] != 1 {
		t.Fatalf("resolution counters: %v", counts)
	}
}

// TestCorrectionClampedNonNegative pins the ≥0 clamp: an over-learned
// (negative-sum) profile must never produce a negative correction.
func TestCorrectionClampedNonNegative(t *testing.T) {
	st := NewStore(1)
	ms := int64(time.Millisecond)
	st.RecordAttribution("weird", "chip", -20*ms, 2*ms, 3*ms)
	if corr, src := st.Resolve("weird", ""); src != SourceLearned || corr != 0 {
		t.Fatalf("learned negative sum: %v/%v (want 0/learned)", corr, src)
	}
	if corr, src := st.Resolve("other", "chip"); src != SourceFamily || corr != 0 {
		t.Fatalf("family negative sum: %v/%v", corr, src)
	}
	if corr, src := st.Resolve("other", ""); src != SourceGlobal || corr != 0 {
		t.Fatalf("global negative sum: %v/%v", corr, src)
	}
}

// TestModelCapRejections: at the cap, new models stop minting profiles
// (counted), but family and global aggregates still learn.
func TestModelCapRejections(t *testing.T) {
	st := NewStore(1)
	st.SetMaxModels(2)
	ms := int64(time.Millisecond)
	st.RecordAttribution("a", "chip", ms, ms, ms)
	st.RecordAttribution("b", "chip", ms, ms, ms)
	if taught := st.RecordAttribution("c", "chip", ms, ms, ms); taught {
		t.Fatal("model minted past the cap")
	}
	if st.Len() != 2 || st.Rejected() != 1 {
		t.Fatalf("len=%d rejected=%d", st.Len(), st.Rejected())
	}
	// Existing models keep learning at the cap.
	if taught := st.RecordAttribution("a", "chip", ms, ms, ms); !taught {
		t.Fatal("existing model stopped learning at the cap")
	}
	// The rejected session still taught the fallback rungs.
	if g := st.Global(); g.Sessions() != 4 {
		t.Fatalf("global sessions = %d, want 4", g.Sessions())
	}
	fams := st.Families()
	if len(fams) != 1 || fams[0].Sessions() != 4 {
		t.Fatalf("family sessions: %+v", fams)
	}
	if err := st.RecordCalibration(CalEntry{
		Model: "d", Tip: 100 * time.Millisecond, Warmup: 20 * time.Millisecond,
		Interval: 20 * time.Millisecond, Samples: 1,
	}); err == nil {
		t.Fatal("calibration minted a profile past the cap")
	}
	if st.Rejected() != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected())
	}
}

// TestSnapshotRoundTripBitForBit pins persistence: save → load → save
// produces identical bytes, including sketches and counters.
func TestSnapshotRoundTripBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := foldStream(streamFor(rng, 500), 4)
	st.SetMaxModels(3) // force some rejections into the counters
	ms := int64(time.Millisecond)
	for i := 0; i < 10; i++ {
		st.RecordAttribution(fmt.Sprintf("capped-%d", i), "chip", ms, ms, ms)
	}

	var first bytes.Buffer
	if err := st.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	reloaded := NewStore(7) // different stripe count must not matter
	if err := reloaded.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := reloaded.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot round trip not bit-for-bit:\nfirst  %d bytes\nsecond %d bytes", first.Len(), second.Len())
	}
}

// TestSaveLoadFile exercises the atomic file path (temp file synced,
// renamed, directory synced), including the missing-file first boot
// and an overwrite: each save round-trips and leaves no temp file.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	empty, found, err := LoadFile(path, 0)
	if err != nil || found || empty.Len() != 0 {
		t.Fatalf("first boot: %v found=%v len=%d", err, found, empty.Len())
	}
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 2; round++ {
		st := foldStream(streamFor(rng, 300), 0)
		if err := st.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		back, found, err := LoadFile(path, 0)
		if err != nil || !found {
			t.Fatalf("round %d: reload: %v found=%v", round, err, found)
		}
		var a, b bytes.Buffer
		if err := st.WriteSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := back.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("round %d: file round trip diverged from in-memory snapshot", round)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
			t.Fatalf("round %d: temp files left behind: %v", round, left)
		}
	}
}

// TestRefusedFileNamedOnce: a refused knowledge file's error names its
// path and the package once each, whichever reader refused it.
func TestRefusedFileNamedOnce(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"junk.json":    "not json",
		"version.json": `{"version":999}`,
		"trailer.json": `{"version":1} {}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, rerr := ReadFile(path)
		_, _, lerr := LoadFile(path, 0)
		for _, err := range []error{rerr, lerr} {
			if err == nil {
				t.Fatalf("%s accepted", name)
			}
			if msg := err.Error(); strings.Count(msg, path) != 1 || strings.Count(msg, "puncture:") != 1 {
				t.Errorf("%s: want the path and puncture: once each: %q", name, msg)
			}
		}
	}
}

// TestConcurrentSnapshotLoadRecord hammers the store from recorders,
// resolvers, snapshotters, and mergers at once — run under -race this
// is the ingestd steady state (folds + /v1/profiles queries + periodic
// persistence + a fleet delta arriving) in miniature.
func TestConcurrentSnapshotLoadRecord(t *testing.T) {
	st := NewStore(4)
	ms := int64(time.Millisecond)
	const (
		writers = 4
		rounds  = 300
		models  = 12
	)
	delta := NewStore(2)
	delta.RecordAttribution("delta-model", "BCM4339", 2*ms, 3*ms, 5*ms)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := fmt.Sprintf("model-%02d", (w*5+i)%models)
				st.RecordAttribution(m, "BCM4339", ms, ms, ms)
				if i%40 == 0 {
					if err := st.RecordCalibration(CalEntry{
						Model: m, Chipset: "BCM4339",
						Tip: 100 * time.Millisecond, Tis: 90 * time.Millisecond,
						Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond,
						Samples: i,
					}); err != nil {
						t.Errorf("calibrate %s: %v", m, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() { // resolver
		defer wg.Done()
		for i := 0; i < writers*rounds; i++ {
			st.Resolve(fmt.Sprintf("model-%02d", i%models), "")
			st.Resolve("unknown", "BCM4339")
		}
	}()
	go func() { // snapshotter + merger
		defer wg.Done()
		for i := 0; i < 25; i++ {
			snap := st.Snapshot()
			if err := snap.Validate(); err != nil {
				t.Errorf("live snapshot invalid: %v", err)
				return
			}
			probe := NewStore(1)
			if err := probe.MergeSnapshot(snap); err != nil {
				t.Errorf("snapshot load: %v", err)
				return
			}
			if err := st.Merge(delta); err != nil {
				t.Errorf("delta merge: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := st.Len(); got != models+1 {
		t.Fatalf("len = %d, want %d", got, models+1)
	}
	p, ok := st.Lookup("delta-model")
	if !ok || p.Sessions() != 25 {
		t.Fatalf("delta-model merged %d times, want 25", p.Sessions())
	}
	if err := st.Snapshot().Validate(); err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
}

// TestCalEntryValidate keeps the registry invariants (now owned here).
func TestCalEntryValidate(t *testing.T) {
	ok := CalEntry{Model: "m", Tip: 100 * time.Millisecond, Tis: 90 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []CalEntry{
		{},
		{Model: "m"},
		{Model: "m", Warmup: time.Millisecond, Interval: 200 * time.Millisecond, Tip: 100 * time.Millisecond},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}

// TestReadSnapshotRefusesUncoveredCorrection: a profile with
// attributions must carry a correction_sketch covering every one. A
// profile written before sketches existed (no correction_sketch) or
// whose sketch covers a subset is refused with an error naming the
// model, instead of merging in with no correction quantiles.
func TestReadSnapshotRefusesUncoveredCorrection(t *testing.T) {
	ms := int64(time.Millisecond)
	st := NewStore(0)
	st.RecordAttribution("Phone P", "chip", 2*ms, ms, 0)
	st.RecordAttribution("Phone P", "chip", 3*ms, ms, 0)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("store-written snapshot refused: %v", err)
	}
	subset := agg.NewSketch(0)
	subset.Add(float64(3 * ms))
	for name, corr := range map[string]*agg.Sketch{"pre-sketch": nil, "subset sketch": subset} {
		snap, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		snap.Profiles[0].Corr = corr
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if name == "pre-sketch" && strings.Contains(string(blob), "correction_sketch") {
			t.Fatalf("pre-sketch profile still carries a sketch: %s", blob)
		}
		_, err = ReadSnapshot(bytes.NewReader(blob))
		if err == nil || !strings.Contains(err.Error(), "Phone P") {
			t.Errorf("%s: ReadSnapshot = %v, want an error naming the model", name, err)
		}
		if err := NewStore(0).MergeSnapshot(snap); err == nil {
			t.Errorf("%s: MergeSnapshot accepted the profile", name)
		}
	}
}
