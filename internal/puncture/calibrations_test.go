package puncture

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func calEntry(model string, i int) CalEntry {
	return CalEntry{
		Model:    model,
		Chipset:  "BCM-test",
		Tip:      time.Duration(60+i%40) * time.Millisecond,
		Tis:      50 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Interval: 20 * time.Millisecond,
		Samples:  8,
	}
}

// TestLoadFileLegacyRegistry pins that a -registry file written by the
// retired registry type (a plain CalEntry array) still loads through
// the one snapshot loader, into identical entries.
func TestLoadFileLegacyRegistry(t *testing.T) {
	st, found, err := LoadFile(filepath.Join("testdata", "registry-legacy.json"), 0)
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	want := []CalEntry{
		{Model: "Google Nexus 4", Chipset: "WCN3660", Tip: 40 * time.Millisecond,
			Warmup: 15 * time.Millisecond, Interval: 15 * time.Millisecond, Samples: 6},
		{Model: "Google Nexus 5", Chipset: "BCM4339", Tip: 205 * time.Millisecond, Tis: 50 * time.Millisecond,
			Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond, Samples: 8},
		{Model: "Samsung Galaxy S4", Tip: 210 * time.Millisecond, Tis: 100 * time.Millisecond,
			Warmup: 25 * time.Millisecond, Interval: 30 * time.Millisecond, Samples: 4},
	}
	got := st.Calibrations()
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Writing it back reproduces the fixture byte for byte.
	out := filepath.Join(t.TempDir(), "registry.json")
	if err := st.SaveCalibrationsFile(out); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join("testdata", "registry-legacy.json"))
	b, _ := os.ReadFile(out)
	if string(a) != string(b) {
		t.Fatalf("calibrations file differs from the legacy format:\n%s\nvs\n%s", b, a)
	}
}

// TestReadSnapshotRejectsBadCalibrations: corrupt JSON and invalid
// entries are refused in either file format, and a duplicate model in
// an entry array replaces the earlier entry as a re-record would.
func TestReadSnapshotRejectsBadCalibrations(t *testing.T) {
	for _, in := range []string{
		"{not json",
		"[not json",
		`[{"model":"X"}]`,
		`[{}]`,
		`[{"model":"X","tip_ns":50000000,"warmup_ns":1,"interval_ns":60000000}]`,
	} {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	snap, err := ReadSnapshot(strings.NewReader(
		`[{"model":"X","warmup_ns":1,"interval_ns":2},{"model":"X","warmup_ns":3,"interval_ns":4}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Profiles) != 1 || snap.Profiles[0].Warmup != 3 || snap.Epoch != 2 {
		t.Fatalf("duplicate entry: %+v (epoch %d)", snap.Profiles, snap.Epoch)
	}
}

// failingJSON stands in for a save that breaks mid-write (disk full,
// I/O error): its encoding fails after the temp file exists.
type failingJSON struct{}

func (failingJSON) MarshalJSON() ([]byte, error) { return nil, errors.New("injected write failure") }

// TestSaveCalibrationsFileFailureKeepsPrevious: a save that cannot
// complete reports an error and leaves the previous file intact, with
// no temp file left behind.
func TestSaveCalibrationsFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	st := NewStore(0)
	if err := st.RecordCalibration(calEntry("before", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCalibrationsFile(path); err != nil {
		t.Fatal(err)
	}
	prev, _ := os.ReadFile(path)

	if err := st.RecordCalibration(calEntry("after", 2)); err != nil {
		t.Fatal(err)
	}
	if err := saveAtomic(path, failingJSON{}); err == nil {
		t.Fatal("failed write reported success")
	}
	if err := st.SaveCalibrationsFile(filepath.Join(dir, "missing", "registry.json")); err == nil {
		t.Fatal("save into a missing directory reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(prev) {
		t.Fatalf("previous file changed: err=%v\n%s", err, got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
	back, _, err := LoadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Calibration("after"); ok || back.CalibratedLen() != 1 {
		t.Fatalf("previous file holds %v", back.Calibrations())
	}
}
