package puncture

import (
	"bytes"
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

// snapshotOf wraps profile JSON objects in an otherwise empty snapshot.
func snapshotOf(profiles ...string) string {
	return `{"version":1,"epoch":0,"profiles":[` + strings.Join(profiles, ",") + `],"global":{}}`
}

// TestReadSnapshotRejectsBadCalibrations: corrupt JSON and snapshots
// whose profiles carry an invalid calibration or repeat a model are
// refused; a valid calibrated profile loads as written.
func TestReadSnapshotRejectsBadCalibrations(t *testing.T) {
	for _, in := range []string{
		"{not json",
		snapshotOf(`{}`),
		snapshotOf(`{"model":"X","tip_ns":50000000,"warmup_ns":1,"interval_ns":60000000}`),
		snapshotOf(`{"model":"X","warmup_ns":1,"interval_ns":2}`, `{"model":"X","warmup_ns":3,"interval_ns":4}`),
	} {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	snap, err := ReadSnapshot(strings.NewReader(snapshotOf(`{"model":"X","warmup_ns":3,"interval_ns":4}`)))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Profiles) != 1 || !snap.Profiles[0].Calibrated() || snap.Profiles[0].Warmup != 3 {
		t.Fatalf("calibrated profile: %+v", snap.Profiles)
	}
}

// TestReadSnapshotOneValue: a snapshot is the only JSON value its
// reader holds. A bare array (the retired calibration-array format), a
// second value or appended junk is refused; trailing whitespace,
// including WriteSnapshot's own newline, is not.
func TestReadSnapshotOneValue(t *testing.T) {
	st := NewStore(0)
	if err := st.RecordCalibration(calEntry("Phone A", 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"written", valid, true},
		{"no newline", strings.TrimSpace(valid), true},
		{"trailing spaces", valid + "  \t\r\n  ", true},
		{"empty array", "[]", false},
		{"calibration array", `[{"model":"X","warmup_ns":1,"interval_ns":2}]`, false},
		{"second value", valid + `{"version": 99}`, false},
		{"second value and garbage", valid + `{"version": 99} garbage`, false},
		{"trailing garbage", valid + "garbage", false},
		{"trailing brace", valid + "}", false},
	} {
		_, err := ReadSnapshot(strings.NewReader(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// failingJSON stands in for a save that breaks mid-write (disk full,
// I/O error): its encoding fails after the temp file exists.
type failingJSON struct{}

func (failingJSON) MarshalJSON() ([]byte, error) { return nil, errors.New("injected write failure") }

// TestSaveFileFailureKeepsPrevious: a save that cannot complete reports
// an error and leaves the previous file intact, with no temp file left
// behind.
func TestSaveFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knowledge.json")
	st := NewStore(0)
	if err := st.RecordCalibration(calEntry("before", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	prev, _ := os.ReadFile(path)

	if err := st.RecordCalibration(calEntry("after", 2)); err != nil {
		t.Fatal(err)
	}
	if err := saveAtomic(path, failingJSON{}); err == nil {
		t.Fatal("failed write reported success")
	}
	if err := st.SaveFile(filepath.Join(dir, "missing", "knowledge.json")); err == nil {
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
