package puncture

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// FuzzReadSnapshot fuzzes the knowledge-file reader, which takes
// untrusted bytes from disk and from POST /v1/profiles. Any input is
// either refused, or its snapshot merges into a fresh store without
// error or panic; that store's snapshot bytes are then a fixpoint: read
// back and merged into another fresh store, they write out unchanged.
func FuzzReadSnapshot(f *testing.F) {
	ms := int64(time.Millisecond)
	taught := NewStore(0)
	for i := int64(0); i < 12; i++ {
		chipset := [...]string{"BCM4339", "WCN3660"}[i%2]
		taught.RecordAttribution(fmt.Sprintf("Phone %d", i%4), chipset, 2*ms+i*ms/3, ms-i*ms/5, i*ms/7-ms)
	}
	if err := taught.RecordCalibration(calEntry("Phone 0", 1)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := taught.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	for _, seed := range []string{
		valid,
		snapshotOf(),
		"[]",
		`[{"model":"X","warmup_ns":1,"interval_ns":2}]`,
		valid + `{"version": 99}`,
		valid + `{"version": 99} garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := writeMerged(t, snap)
		again, err := ReadSnapshot(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("written snapshot refused: %v\n%s", err, first)
		}
		if second := writeMerged(t, again); !bytes.Equal(first, second) {
			t.Fatalf("snapshot bytes are not a fixpoint:\n%s\nvs\n%s", first, second)
		}
	})
}

// writeMerged merges snap into a fresh store and returns its snapshot
// bytes.
func writeMerged(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	st := NewStore(0)
	if err := st.MergeSnapshot(snap); err != nil {
		t.Fatalf("accepted snapshot does not merge: %v", err)
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("merged store does not write: %v", err)
	}
	return buf.Bytes()
}
