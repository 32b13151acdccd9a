package puncture

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SnapshotVersion is the current snapshot schema version.
const SnapshotVersion = 1

// Snapshot is the canonical serialized form of a Store: every device
// profile, every chipset-family aggregate, the global prior, and the
// bookkeeping counters. The JSON form is deterministic (profiles and
// families sorted, sketches in canonical flushed form, float64s in
// Go's shortest round-tripping representation), so save → load → save
// is bit-for-bit identical — the property the ingestd restart e2e
// pins. Deliberately free of wall-clock stamps for the same reason.
type Snapshot struct {
	Version int `json:"version"`
	// Epoch is the total updates the store had absorbed.
	Epoch int64 `json:"epoch"`
	// Rejected counts profile mints refused at the cap.
	Rejected int64           `json:"rejected,omitempty"`
	Profiles []DeviceProfile `json:"profiles"`
	Families []FamilyProfile `json:"families,omitempty"`
	Global   FamilyProfile   `json:"global"`
}

// Validate rejects snapshots that would poison a store.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("puncture: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.Epoch < 0 || s.Rejected < 0 {
		return fmt.Errorf("puncture: snapshot with negative counters")
	}
	seen := make(map[string]bool, len(s.Profiles))
	for i := range s.Profiles {
		p := &s.Profiles[i]
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Model] {
			return fmt.Errorf("puncture: snapshot has duplicate profile %q", p.Model)
		}
		seen[p.Model] = true
	}
	fams := make(map[string]bool, len(s.Families))
	for i := range s.Families {
		f := &s.Families[i]
		if f.Chipset == "" {
			return fmt.Errorf("puncture: snapshot family without chipset")
		}
		if err := f.Validate(); err != nil {
			return err
		}
		if fams[f.Chipset] {
			return fmt.Errorf("puncture: snapshot has duplicate family %q", f.Chipset)
		}
		fams[f.Chipset] = true
	}
	return s.Global.Validate()
}

// Snapshot deep-copies the store's state. Consistent per stripe, not
// across stripes — the right trade for snapshotting a live daemon.
func (st *Store) Snapshot() *Snapshot {
	return &Snapshot{
		Version:  SnapshotVersion,
		Epoch:    st.epoch.Load(),
		Rejected: st.rejected.Load(),
		Profiles: st.Profiles(),
		Families: st.Families(),
		Global:   st.Global(),
	}
}

// MergeSnapshot folds a snapshot into the store under the usual merge
// laws — the path a fleet campaign's profile delta takes into a live
// ingestd. Profiles past the cap are rejected and counted; everything
// else still merges. The snapshot is validated first, so a malformed
// delta cannot leave the store half-merged.
func (st *Store) MergeSnapshot(snap *Snapshot) error {
	if snap == nil {
		return nil
	}
	if err := snap.Validate(); err != nil {
		return err
	}
	for i := range snap.Profiles {
		sp := &snap.Profiles[i]
		sh := st.shardFor(sp.Model)
		sh.mu.Lock()
		p, ok := sh.profiles[sp.Model]
		if !ok {
			if st.models.Load() >= st.maxModels.Load() {
				sh.mu.Unlock()
				st.rejected.Add(1)
				continue
			}
			p = &DeviceProfile{CalEntry: CalEntry{Model: sp.Model}}
			sh.profiles[sp.Model] = p
			st.models.Add(1)
		}
		cp := sp.Clone()
		p.Merge(&cp)
		sh.mu.Unlock()
	}
	for i := range snap.Families {
		sf := &snap.Families[i]
		fsh := st.famShardFor(sf.Chipset)
		fsh.mu.Lock()
		f, ok := fsh.families[sf.Chipset]
		if !ok {
			f = &FamilyProfile{Chipset: sf.Chipset}
			fsh.families[sf.Chipset] = f
		}
		f.Merge(sf)
		fsh.mu.Unlock()
	}
	st.globalMu.Lock()
	st.global.Merge(&snap.Global)
	st.globalMu.Unlock()
	st.epoch.Add(snap.Epoch)
	st.rejected.Add(snap.Rejected)
	return nil
}

// Merge folds another store in (other is snapshotted first, so both
// stores may stay live). The merge obeys the same laws as the
// underlying aggregates: disjoint update streams folded into separate
// stores and merged equal one store folding the whole stream.
func (st *Store) Merge(other *Store) error {
	if other == nil {
		return nil
	}
	return st.MergeSnapshot(other.Snapshot())
}

// WriteSnapshot serializes the store as indented JSON.
func (st *Store) WriteSnapshot(w io.Writer) error { return writeJSON(w, st.Snapshot()) }

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReadSnapshot parses and validates a snapshot. The snapshot must be
// the only JSON value in r: only whitespace may follow it (the newline
// WriteSnapshot ends with), so a second value or appended junk is
// refused rather than silently dropped.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("puncture: decoding snapshot: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == nil:
		return nil, errors.New("puncture: second JSON value after snapshot")
	case err != io.EOF:
		return nil, fmt.Errorf("puncture: trailing data after snapshot: %w", err)
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// SaveFile atomically writes the store's snapshot to path: the JSON is
// written to a temp file in the same directory, synced, and renamed
// into place, and the directory is synced after, so neither a crash nor
// a power cut mid-save can leave a truncated knowledge base — the
// previous snapshot survives intact.
func (st *Store) SaveFile(path string) error { return saveAtomic(path, st.Snapshot()) }

func saveAtomic(path string, v any) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("puncture: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeJSON(tmp, v); err != nil {
		tmp.Close()
		return fmt.Errorf("puncture: writing snapshot: %w", err)
	}
	// The data must be on disk before the rename that names it: a
	// rename can reach the disk first, and a power cut in between would
	// install an empty or partial file over the previous snapshot.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("puncture: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("puncture: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("puncture: installing snapshot: %w", err)
	}
	// And the rename itself is durable only once its directory is.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("puncture: syncing snapshot directory: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads and validates a snapshot file. A missing file is not
// an error: it returns found=false — the first boot of a daemon that
// will create the file on its first save.
func ReadFile(path string) (snap *Snapshot, found bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("puncture: opening snapshot: %w", err)
	}
	defer f.Close()
	if snap, err = ReadSnapshot(f); err != nil {
		// ReadSnapshot's error already names the package.
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return snap, true, nil
}

// LoadFile builds a store from ReadFile's snapshot (shards < 1 selects
// the default stripe count); a missing file yields an empty store and
// found=false.
func LoadFile(path string, shards int) (st *Store, found bool, err error) {
	snap, found, err := ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	st = NewStore(shards)
	if err := st.MergeSnapshot(snap); err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return st, found, nil
}
