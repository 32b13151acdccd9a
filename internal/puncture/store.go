package puncture

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards balances footprint against contention for the paper's
// five-model inventory scaled up to a realistic device census; it
// matches the ingest puncturer's stripe default.
const DefaultShards = 16

// DefaultMaxModels bounds the profile table: a real device census is a
// few thousand models, so anything past this is key-cardinality abuse.
// At the cap, unseen models stop minting profiles (their attribution
// still teaches the family and global aggregates, and their own
// reported correction still applies) rather than growing until OOM;
// every refused mint increments the Rejected counter.
const DefaultMaxModels = 4096

// Store is the lock-striped device-knowledge store. Profiles are
// partitioned across stripes by a hash of the model name and families
// by a hash of the chipset, so fleet workers recording calibrations,
// ingest fold workers learning overheads, and query handlers resolving
// corrections proceed without funnelling through one global lock; the
// hot path (Resolve on a known model) is a single striped read.
type Store struct {
	maxModels atomic.Int64
	models    atomic.Int64
	rejected  atomic.Int64
	epoch     atomic.Int64
	resolved  [numSources]atomic.Int64

	shards    []profileShard
	famShards []familyShard
	globalMu  sync.RWMutex
	global    FamilyProfile
}

type profileShard struct {
	mu       sync.RWMutex
	profiles map[string]*DeviceProfile
}

type familyShard struct {
	mu       sync.RWMutex
	families map[string]*FamilyProfile
}

// NewStore builds an empty store (shards < 1 selects DefaultShards).
func NewStore(shards int) *Store {
	if shards < 1 {
		shards = DefaultShards
	}
	st := &Store{
		shards:    make([]profileShard, shards),
		famShards: make([]familyShard, shards),
	}
	st.maxModels.Store(DefaultMaxModels)
	for i := range st.shards {
		st.shards[i].profiles = make(map[string]*DeviceProfile)
	}
	for i := range st.famShards {
		st.famShards[i].families = make(map[string]*FamilyProfile)
	}
	return st
}

// SetMaxModels overrides the distinct-profile cap (n < 1 removes it).
func (st *Store) SetMaxModels(n int64) {
	if n < 1 {
		n = int64(^uint64(0) >> 1)
	}
	st.maxModels.Store(n)
}

func (st *Store) shardFor(model string) *profileShard {
	return &st.shards[NewKeyHash().AddString(model).Sum64()%uint64(len(st.shards))]
}

func (st *Store) famShardFor(chipset string) *familyShard {
	return &st.famShards[NewKeyHash().AddString(chipset).Sum64()%uint64(len(st.famShards))]
}

// Resolve walks the correction ladder for a model that did NOT report
// its own attribution: learned model profile → chipset-family fallback
// → global prior → nothing. chipset may be "" — when the model's
// profile knows its family, that key is used for the fallback rung.
// The model-hit fast path is one striped RLock'd map read.
func (st *Store) Resolve(model, chipset string) (time.Duration, Source) {
	sh := st.shardFor(model)
	sh.mu.RLock()
	var (
		corr    time.Duration
		learned bool
	)
	if p := sh.profiles[model]; p != nil {
		if p.Sessions() > 0 {
			corr, learned = p.Correction(), true
		} else if chipset == "" {
			chipset = p.Chipset
		}
	}
	sh.mu.RUnlock()
	if learned {
		st.resolved[SourceLearned].Add(1)
		return corr, SourceLearned
	}
	if chipset != "" {
		fsh := st.famShardFor(chipset)
		fsh.mu.RLock()
		f := fsh.families[chipset]
		var ok bool
		if f != nil && f.Sessions() > 0 {
			corr, ok = f.Correction(), true
		}
		fsh.mu.RUnlock()
		if ok {
			st.resolved[SourceFamily].Add(1)
			return corr, SourceFamily
		}
	}
	st.globalMu.RLock()
	n := st.global.Sessions()
	if n > 0 {
		corr = st.global.Correction()
	}
	st.globalMu.RUnlock()
	if n > 0 {
		st.resolved[SourceGlobal].Add(1)
		return corr, SourceGlobal
	}
	st.resolved[SourceNone].Add(1)
	return 0, SourceNone
}

// CountReported records that n sessions shipped their own attribution
// and were corrected from it — the top rung of the ladder, counted here
// so /v1/profiles shows the whole provenance distribution.
func (st *Store) CountReported(n int64) { st.resolved[SourceReported].Add(n) }

// RecordAttribution folds one attributing session's overhead shares
// (ns) into the model's profile, its chipset family, and the global
// prior: a run of one. Returns false when the model profile could not
// be minted at the cap — the family and global aggregates still learn,
// so capped traffic degrades to the fallback rungs instead of teaching
// nothing.
func (st *Store) RecordAttribution(model, chipset string, userNS, sdioNS, psmNS int64) bool {
	return st.RecordAttributionRun(model, chipset, []Attribution{{userNS, sdioNS, psmNS}}) == 1
}

// RecordAttributionRun folds a run of attributing sessions that share
// one model and one chipset, in order, under a single acquisition of
// each lock: the model profile (minted unless the profile table is at
// its cap), the chipset family when one is known (the profile's own
// family fills in an empty chipset), and the global prior. The store's
// epoch advances once per run. Returns how many sessions taught the
// model profile: len(run), or 0 when minting was refused at the cap —
// counted as rejected, while the family and global aggregates still
// learn.
func (st *Store) RecordAttributionRun(model, chipset string, run []Attribution) int {
	if len(run) == 0 {
		return 0
	}
	taught := 0
	sh := st.shardFor(model)
	sh.mu.Lock()
	p, ok := sh.profiles[model]
	if !ok && st.models.Load() < st.maxModels.Load() {
		p = &DeviceProfile{CalEntry: CalEntry{Model: model, Chipset: chipset}}
		sh.profiles[model] = p
		st.models.Add(1)
	}
	if p != nil {
		if p.Chipset == "" {
			p.Chipset = chipset
		}
		if chipset == "" {
			chipset = p.Chipset
		}
		p.addRun(run)
		taught = len(run)
	}
	sh.mu.Unlock()
	if taught == 0 {
		st.rejected.Add(int64(len(run)))
	}

	if chipset != "" {
		fsh := st.famShardFor(chipset)
		fsh.mu.Lock()
		f, ok := fsh.families[chipset]
		if !ok {
			f = &FamilyProfile{Chipset: chipset}
			fsh.families[chipset] = f
		}
		f.addRun(run)
		fsh.mu.Unlock()
	}

	st.globalMu.Lock()
	st.global.addRun(run)
	st.globalMu.Unlock()
	st.epoch.Add(1)
	return taught
}

// RecordCalibration validates and stores calibrated timers on the
// model's profile, replacing any previous calibration (a direct record
// is authoritative; only Merge arbitrates between peers). Subject to
// the same profile cap as attribution learning.
func (st *Store) RecordCalibration(e CalEntry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh := st.shardFor(e.Model)
	sh.mu.Lock()
	p, ok := sh.profiles[e.Model]
	if !ok {
		if st.models.Load() >= st.maxModels.Load() {
			sh.mu.Unlock()
			st.rejected.Add(1)
			return errRejected(e.Model)
		}
		p = &DeviceProfile{}
		sh.profiles[e.Model] = p
		st.models.Add(1)
	}
	chipset := p.Chipset
	p.CalEntry = e
	if p.Chipset == "" {
		p.Chipset = chipset
	}
	p.Epoch++
	sh.mu.Unlock()
	st.epoch.Add(1)
	return nil
}

func errRejected(model string) error {
	return &RejectedError{Model: model}
}

// RejectedError reports a profile mint refused at the cap.
type RejectedError struct{ Model string }

func (e *RejectedError) Error() string {
	return "puncture: " + e.Model + ": profile table at capacity"
}

// Lookup returns a deep copy of the model's profile, if present.
func (st *Store) Lookup(model string) (DeviceProfile, bool) {
	sh := st.shardFor(model)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if p := sh.profiles[model]; p != nil {
		return p.Clone(), true
	}
	return DeviceProfile{}, false
}

// Calibration returns the model's calibrated timers, if it has any.
func (st *Store) Calibration(model string) (CalEntry, bool) {
	sh := st.shardFor(model)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if p := sh.profiles[model]; p != nil && p.Calibrated() {
		return p.CalEntry, true
	}
	return CalEntry{}, false
}

// Calibrated reports whether the model has calibrated timers.
func (st *Store) Calibrated(model string) bool {
	_, ok := st.Calibration(model)
	return ok
}

// Len returns the number of device profiles (calibrated or learned).
func (st *Store) Len() int { return int(st.models.Load()) }

// Rejected returns how many profile mints the cap refused.
func (st *Store) Rejected() int64 { return st.rejected.Load() }

// Epoch returns the total updates the store has absorbed (attribution
// folds plus calibration records, own and merged).
func (st *Store) Epoch() int64 { return st.epoch.Load() }

// ResolvedBySource returns the monotonic count of corrections served
// per ladder rung.
func (st *Store) ResolvedBySource() map[string]int64 {
	out := make(map[string]int64, numSources)
	for s := Source(0); s < numSources; s++ {
		out[s.String()] = st.resolved[s].Load()
	}
	return out
}

// Models lists every profiled model, sorted.
func (st *Store) Models() []string {
	var out []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for m := range sh.profiles {
			out = append(out, m)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Calibrations returns every calibrated model's timers, sorted by
// model. Never nil, so an empty store serializes as [].
func (st *Store) Calibrations() []CalEntry {
	out := []CalEntry{}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, p := range sh.profiles {
			if p.Calibrated() {
				out = append(out, p.CalEntry)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// CalibratedLen counts the models with calibrated timers.
func (st *Store) CalibratedLen() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, p := range sh.profiles {
			if p.Calibrated() {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Profiles deep-copies every profile, sorted by model. Consistent per
// stripe, not across stripes — the right trade for serving queries
// while folds continue.
func (st *Store) Profiles() []DeviceProfile {
	var out []DeviceProfile
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, p := range sh.profiles {
			out = append(out, p.Clone())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Families deep-copies every chipset-family aggregate, sorted.
func (st *Store) Families() []FamilyProfile {
	var out []FamilyProfile
	for i := range st.famShards {
		fsh := &st.famShards[i]
		fsh.mu.RLock()
		for _, f := range fsh.families {
			out = append(out, *f)
		}
		fsh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Chipset < out[j].Chipset })
	return out
}

// Global returns a copy of the global prior.
func (st *Store) Global() FamilyProfile {
	st.globalMu.RLock()
	defer st.globalMu.RUnlock()
	return st.global
}
