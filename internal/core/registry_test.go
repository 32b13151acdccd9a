package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/puncture"
)

// The calibration database CalibrateInto fills is a puncture.Store;
// these tests pin the record, lookup, knowledge file and concurrency
// behaviour the measurement layer relies on.

func validEntry() puncture.CalEntry {
	return puncture.CalEntry{
		Model: "Google Nexus 5", Chipset: "BCM4339",
		Tip: 205 * time.Millisecond, Tis: 50 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond,
		Samples: 8,
	}
}

func testEntry(model string, i int) puncture.CalEntry {
	return puncture.CalEntry{
		Model:    model,
		Chipset:  "BCM-test",
		Tip:      time.Duration(60+i%40) * time.Millisecond,
		Tis:      50 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Interval: 20 * time.Millisecond,
		Samples:  8,
	}
}

// configFor applies the model's stored calibration to base, the way
// the session layer and fleet campaigns do.
func configFor(st *puncture.Store, model string, base Config) (Config, bool) {
	e, ok := st.Calibration(model)
	if !ok {
		return base, false
	}
	base.WarmupDelay = e.Warmup
	base.BackgroundInterval = e.Interval
	return base, true
}

func TestRegistryPutGet(t *testing.T) {
	st := puncture.NewStore(0)
	if err := st.RecordCalibration(validEntry()); err != nil {
		t.Fatal(err)
	}
	e, ok := st.Calibration("Google Nexus 5")
	if !ok || e.Tip != 205*time.Millisecond {
		t.Fatalf("Calibration = %+v, %v", e, ok)
	}
	if _, ok := st.Calibration("iPhone"); ok {
		t.Fatal("found nonexistent entry")
	}
	if st.CalibratedLen() != 1 {
		t.Fatalf("len = %d", st.CalibratedLen())
	}
}

// TestRegistryValidation: the store refuses entries that break the
// calibration invariants and leaves no profile behind.
func TestRegistryValidation(t *testing.T) {
	st := puncture.NewStore(0)
	bad := []puncture.CalEntry{
		{},           // no model
		{Model: "X"}, // zero db/dpre
		{Model: "X", Warmup: 1, Interval: 60 * time.Millisecond, Tis: 50 * time.Millisecond, Tip: 200 * time.Millisecond}, // db >= Tis
	}
	for i, e := range bad {
		if err := st.RecordCalibration(e); err == nil {
			t.Errorf("entry %d accepted: %+v", i, e)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("rejected entries left %d profiles", st.Len())
	}
	if _, ok := st.Calibration("X"); ok {
		t.Fatal("found a rejected calibration")
	}
}

func TestRegistrySaveLoadRoundtrip(t *testing.T) {
	st := puncture.NewStore(0)
	e1 := validEntry()
	e2 := validEntry()
	e2.Model = "Google Nexus 4"
	e2.Tip = 40 * time.Millisecond
	e2.Interval = 15 * time.Millisecond
	e2.Warmup = 15 * time.Millisecond
	if err := st.RecordCalibration(e1); err != nil {
		t.Fatal(err)
	}
	if err := st.RecordCalibration(e2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, found, err := puncture.LoadFile(path, 0)
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if loaded.CalibratedLen() != 2 {
		t.Fatalf("loaded %d entries", loaded.CalibratedLen())
	}
	got, _ := loaded.Calibration("Google Nexus 4")
	if got.Tip != 40*time.Millisecond || got.Interval != 15*time.Millisecond {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	models := loaded.Models()
	if len(models) != 2 || models[0] != "Google Nexus 4" {
		t.Fatalf("models = %v", models)
	}
}

func TestConfigFor(t *testing.T) {
	st := puncture.NewStore(0)
	if err := st.RecordCalibration(validEntry()); err != nil {
		t.Fatal(err)
	}
	cfg, ok := configFor(st, "Google Nexus 5", Config{K: 50})
	if !ok {
		t.Fatal("configFor miss")
	}
	if cfg.WarmupDelay != 20*time.Millisecond || cfg.BackgroundInterval != 20*time.Millisecond || cfg.K != 50 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, ok := configFor(st, "unknown", Config{}); ok {
		t.Fatal("configFor hit for unknown model")
	}
}

func TestShardedRegistryBasics(t *testing.T) {
	st := puncture.NewStore(4)
	if _, ok := st.Calibration("nope"); ok {
		t.Fatal("lookup on empty store succeeded")
	}
	for i := 0; i < 50; i++ {
		if err := st.RecordCalibration(testEntry(fmt.Sprintf("model-%02d", i), i)); err != nil {
			t.Fatalf("record: %v", err)
		}
	}
	if st.CalibratedLen() != 50 {
		t.Fatalf("len = %d, want 50", st.CalibratedLen())
	}
	if got := st.Models(); len(got) != 50 || got[0] != "model-00" || got[49] != "model-49" {
		t.Fatalf("models mis-sorted or wrong count: %d %v...", len(got), got[:2])
	}
	e, ok := st.Calibration("model-07")
	if !ok || e.Tip != testEntry("model-07", 7).Tip {
		t.Fatalf("lookup model-07 = %+v, %v", e, ok)
	}
	cfg, ok := configFor(st, "model-07", DefaultConfig())
	if !ok || cfg.WarmupDelay != e.Warmup || cfg.BackgroundInterval != e.Interval {
		t.Fatalf("configFor wrong: %+v", cfg)
	}
	if err := st.RecordCalibration(puncture.CalEntry{Model: ""}); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

// TestShardedRegistrySnapshotRoundTrip: a knowledge file written from
// one stripe count loads into another with every calibration intact.
func TestShardedRegistrySnapshotRoundTrip(t *testing.T) {
	st := puncture.NewStore(8)
	for i := 0; i < 20; i++ {
		if err := st.RecordCalibration(testEntry(fmt.Sprintf("phone-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := st.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	st2, _, err := puncture.LoadFile(path, 3)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if st2.CalibratedLen() != st.CalibratedLen() {
		t.Fatalf("round trip lost entries: %d vs %d", st2.CalibratedLen(), st.CalibratedLen())
	}
	for _, m := range st.Models() {
		a, _ := st.Calibration(m)
		b, ok := st2.Calibration(m)
		if !ok || a != b {
			t.Fatalf("%s: %+v vs %+v", m, a, b)
		}
	}
}

// TestShardedRegistryConcurrent hammers calibration records and lookups
// from many goroutines; under -race this is the fleet pre-pass and
// session-read pattern in miniature.
func TestShardedRegistryConcurrent(t *testing.T) {
	st := puncture.NewStore(4)
	const (
		writers = 8
		readers = 8
		models  = 16
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := fmt.Sprintf("model-%02d", (w*7+i)%models)
				if err := st.RecordCalibration(testEntry(m, i)); err != nil {
					t.Errorf("record %s: %v", m, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := fmt.Sprintf("model-%02d", (r*3+i)%models)
				if e, ok := st.Calibration(m); ok && e.Model != m {
					t.Errorf("lookup %s returned %s", m, e.Model)
					return
				}
				configFor(st, m, DefaultConfig())
				if i%50 == 0 {
					st.Calibrations()
					st.CalibratedLen()
				}
			}
		}(r)
	}
	wg.Wait()
	if n := st.CalibratedLen(); n != models {
		t.Fatalf("calibrated %d models, want %d", n, models)
	}
	got := st.Calibrations()
	for i := 1; i < len(got); i++ {
		if got[i-1].Model >= got[i].Model {
			t.Fatalf("Calibrations not sorted: %s before %s", got[i-1].Model, got[i].Model)
		}
	}
}

// TestRegistryParallelConfigFor exercises pure read concurrency on a
// pre-populated store — the steady-state fleet path once every model
// has been calibrated.
func TestRegistryParallelConfigFor(t *testing.T) {
	st := puncture.NewStore(0) // default stripe count
	for i := 0; i < 32; i++ {
		if err := st.RecordCalibration(testEntry(fmt.Sprintf("m%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := fmt.Sprintf("m%d", (g+i)%32)
				cfg, ok := configFor(st, m, DefaultConfig())
				if !ok || cfg.WarmupDelay <= 0 {
					t.Errorf("configFor %s failed", m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
