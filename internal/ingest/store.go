package ingest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
)

// Key identifies one aggregation cell: a device model in a scenario arm
// within one time window.
type Key struct {
	Device   string `json:"device"`
	Group    string `json:"group"`
	Scenario string `json:"scenario,omitempty"`
	// WindowMS is the window start (Unix ms); 0 when windowing is off.
	WindowMS int64 `json:"window_ms"`
}

// Cell is the mergeable aggregate of every summary sharing a Key. Raw
// and punctured tracks run side by side: Raw folds the RTTs exactly as
// reported, Punctured folds the same observations after subtracting the
// per-summary correction, so a query can show inflation before/after in
// one row.
type Cell struct {
	Key      Key   `json:"key"`
	Sessions int64 `json:"sessions"`

	ProbesSent     int64 `json:"probes_sent"`
	ProbesLost     int64 `json:"probes_lost"`
	BackgroundSent int64 `json:"background_sent"`

	// Each track carries moments (mean/variance), a fixed-range
	// histogram (0.5 ms bins to 500 ms, for CDF/table rendering), and a
	// quantile sketch — the served percentile source, accurate past the
	// histogram's range cap where cellular promotions and PSM sweeps
	// land.
	Raw       agg.Moments `json:"raw"`
	RawHist   *agg.Hist   `json:"raw_hist"`
	RawSketch *agg.Sketch `json:"raw_sketch,omitempty"`

	Punctured       agg.Moments `json:"punctured"`
	PuncturedHist   *agg.Hist   `json:"punctured_hist"`
	PuncturedSketch *agg.Sketch `json:"punctured_sketch,omitempty"`

	// Correction folds the per-summary correction applied (ns, one
	// observation per punctured session).
	Correction agg.Moments `json:"correction"`

	Inflation    agg.Moments `json:"inflation"`
	UserOverhead agg.Moments `json:"user_overhead"`
	SDIOOverhead agg.Moments `json:"sdio_overhead"`
	PSMInflation agg.Moments `json:"psm_inflation"`

	PSMActiveSessions  int64 `json:"psm_active_sessions"`
	CalibratedSessions int64 `json:"calibrated_sessions"`

	// Correction provenance counts, one per resolution-ladder rung.
	ReportedSessions    int64 `json:"reported_sessions"`
	LearnedSessions     int64 `json:"learned_sessions"`
	FamilySessions      int64 `json:"family_sessions,omitempty"`
	GlobalSessions      int64 `json:"global_sessions,omitempty"`
	UncorrectedSessions int64 `json:"uncorrected_sessions"`

	// Epoch is the store-wide monotonic version stamped on the cell's
	// last mutation — the /v1/stream delta cursor: a cell whose Epoch
	// exceeds a client's cursor has changed since that client last
	// looked. Excluded from JSON: it is runtime scheduling state, not
	// aggregate data, and depends on fold interleaving (two stores fed
	// the same stream must serialize identically).
	Epoch int64 `json:"-"`
	// SpanMS is the window width this cell covers: 0 for fine-grained
	// cells (one store window), the rollup width for compacted rollup
	// cells, and -1 for the identity-collapsed overflow cell (all
	// time). See retention.go.
	SpanMS int64 `json:"span_ms,omitempty"`
}

func newCell(k Key) *Cell {
	return &Cell{
		Key:             k,
		RawHist:         agg.NewDurationHist(),
		PuncturedHist:   agg.NewDurationHist(),
		RawSketch:       agg.NewSketch(0),
		PuncturedSketch: agg.NewSketch(0),
	}
}

// fold absorbs one summary with its puncturing correction.
func (c *Cell) fold(s *Summary, corr time.Duration, src CorrectionSource) {
	c.Sessions++
	c.ProbesSent += int64(s.Sent)
	c.ProbesLost += int64(s.Lost)
	c.BackgroundSent += int64(s.BackgroundSent)
	for _, v := range s.RTTs {
		d := time.Duration(v)
		c.Raw.Add(float64(d))
		c.RawHist.Add(d)
		c.RawSketch.AddDuration(d)
		p := d - corr
		if p < 0 {
			p = 0
		}
		c.Punctured.Add(float64(p))
		c.PuncturedHist.Add(p)
		c.PuncturedSketch.AddDuration(p)
	}
	c.foldTail(s, corr, src)
}

// foldScratch is a fold worker's reusable workspace for the batched
// fold path: the raw and punctured observation runs are materialized
// once per summary, then each aggregate absorbs its run with one
// AddMulti call. One scratch per worker; never shared, never retained
// past the call.
type foldScratch struct {
	rawF []float64
	rawD []time.Duration
	punF []float64
	punD []time.Duration
}

func (fs *foldScratch) ensure(n int) {
	if cap(fs.rawF) < n {
		fs.rawF = make([]float64, n)
		fs.rawD = make([]time.Duration, n)
		fs.punF = make([]float64, n)
		fs.punD = make([]time.Duration, n)
	}
	fs.rawF, fs.rawD = fs.rawF[:n], fs.rawD[:n]
	fs.punF, fs.punD = fs.punF[:n], fs.punD[:n]
}

// foldBatch is fold with the per-observation loop replaced by the agg
// batch entry points: one pass builds the raw and clamped-punctured
// runs in the scratch, then each aggregate absorbs its whole run. The
// aggregates are independent and every AddMulti is defined to match
// its serial Add sequence exactly, so foldBatch and fold produce
// byte-identical cells — the equivalence property tests pin this.
func (c *Cell) foldBatch(s *Summary, corr time.Duration, src CorrectionSource, fs *foldScratch) {
	c.Sessions++
	c.ProbesSent += int64(s.Sent)
	c.ProbesLost += int64(s.Lost)
	c.BackgroundSent += int64(s.BackgroundSent)
	if n := len(s.RTTs); n > 0 {
		fs.ensure(n)
		for i, v := range s.RTTs {
			d := time.Duration(v)
			fs.rawD[i] = d
			fs.rawF[i] = float64(d)
			p := d - corr
			if p < 0 {
				p = 0
			}
			fs.punD[i] = p
			fs.punF[i] = float64(p)
		}
		c.Raw.AddMulti(fs.rawF)
		c.RawHist.AddMulti(fs.rawD)
		c.RawSketch.AddMulti(fs.rawF)
		c.Punctured.AddMulti(fs.punF)
		c.PuncturedHist.AddMulti(fs.punD)
		c.PuncturedSketch.AddMulti(fs.punF)
	}
	c.foldTail(s, corr, src)
}

// foldTail is the per-summary (not per-observation) part of a fold,
// shared by the serial and batched paths: sketch-only summaries,
// overhead moments, session flags, and correction provenance.
func (c *Cell) foldTail(s *Summary, corr time.Duration, src CorrectionSource) {
	if len(s.RTTs) == 0 && s.Sketch != nil && s.Sketch.Count > 0 {
		c.foldSketch(s.Sketch, corr)
	}
	if s.Inflation > 0 {
		c.Inflation.Add(s.Inflation)
	}
	if s.LayersOK {
		c.UserOverhead.Add(float64(s.UserOverheadNS))
		c.SDIOOverhead.Add(float64(s.SDIOOverheadNS))
		c.PSMInflation.Add(float64(s.PSMInflationNS))
	}
	if s.PSMActive {
		c.PSMActiveSessions++
	}
	if s.Calibrated {
		c.CalibratedSessions++
	}
	switch src {
	case SourceReported:
		c.ReportedSessions++
		c.Correction.Add(float64(corr))
	case SourceLearned:
		c.LearnedSessions++
		c.Correction.Add(float64(corr))
	case SourceFamily:
		c.FamilySessions++
		c.Correction.Add(float64(corr))
	case SourceGlobal:
		c.GlobalSessions++
		c.Correction.Add(float64(corr))
	default:
		c.UncorrectedSessions++
	}
}

// foldSketch absorbs a device-posted sketch summary — the wire shape
// for sessions that could not retain or transmit raw RTTs. The sketch
// merges into the cell sketches directly (raw as posted, punctured
// shifted down by the correction with the same ≥0 clamp the
// per-observation path applies); moments and the fixed-range histogram
// fold each centroid as weight copies of its mean, so counts stay
// consistent across all three aggregates, with min/max taken from the
// sketch's exact extremes.
func (c *Cell) foldSketch(sk *agg.Sketch, corr time.Duration) {
	c.RawSketch.Merge(sk)
	// One clone+flush serves both tracks: Shifted on the already-flushed
	// copy skips a second buffer sort under the stripe lock.
	flat := sk.Clone()
	flat.Flush()
	for _, ct := range flat.Centroids {
		c.Raw.AddN(ct.Mean, ct.Weight)
		c.RawHist.AddN(time.Duration(ct.Mean), ct.Weight)
	}
	if sk.MinV < c.Raw.MinV {
		c.Raw.MinV = sk.MinV
	}
	if sk.MaxV > c.Raw.MaxV {
		c.Raw.MaxV = sk.MaxV
	}

	shifted := flat.Shifted(-float64(corr), 0)
	c.PuncturedSketch.Merge(shifted)
	for _, ct := range shifted.Centroids {
		c.Punctured.AddN(ct.Mean, ct.Weight)
		c.PuncturedHist.AddN(time.Duration(ct.Mean), ct.Weight)
	}
	if shifted.MinV < c.Punctured.MinV {
		c.Punctured.MinV = shifted.MinV
	}
	if shifted.MaxV > c.Punctured.MaxV {
		c.Punctured.MaxV = shifted.MaxV
	}
}

// Merge folds another cell's aggregates in (keys need not match; the
// receiver keeps its own — this is what query-time rollups rely on).
// On error (histogram geometry mismatch) the receiver is unchanged.
func (c *Cell) Merge(o *Cell) error {
	if o == nil {
		return nil
	}
	// Check every fallible step before mutating anything, so a
	// mismatched cell cannot leave this one half-merged.
	if err := c.RawHist.CheckGeometry(o.RawHist); err != nil {
		return err
	}
	if err := c.PuncturedHist.CheckGeometry(o.PuncturedHist); err != nil {
		return err
	}
	if o.Epoch > c.Epoch {
		c.Epoch = o.Epoch
	}
	c.Sessions += o.Sessions
	c.ProbesSent += o.ProbesSent
	c.ProbesLost += o.ProbesLost
	c.BackgroundSent += o.BackgroundSent
	// Coverage-aware: merging with a pre-sketch cell drops the sketch
	// (capture the fold counts before the moments merge below).
	agg.MergeSketches(&c.RawSketch, c.Raw.N, o.RawSketch, o.Raw.N)
	agg.MergeSketches(&c.PuncturedSketch, c.Punctured.N, o.PuncturedSketch, o.Punctured.N)
	c.Raw.Merge(o.Raw)
	if err := c.RawHist.Merge(o.RawHist); err != nil {
		return err
	}
	c.Punctured.Merge(o.Punctured)
	if err := c.PuncturedHist.Merge(o.PuncturedHist); err != nil {
		return err
	}
	c.Correction.Merge(o.Correction)
	c.Inflation.Merge(o.Inflation)
	c.UserOverhead.Merge(o.UserOverhead)
	c.SDIOOverhead.Merge(o.SDIOOverhead)
	c.PSMInflation.Merge(o.PSMInflation)
	c.PSMActiveSessions += o.PSMActiveSessions
	c.CalibratedSessions += o.CalibratedSessions
	c.ReportedSessions += o.ReportedSessions
	c.LearnedSessions += o.LearnedSessions
	c.FamilySessions += o.FamilySessions
	c.GlobalSessions += o.GlobalSessions
	c.UncorrectedSessions += o.UncorrectedSessions
	return nil
}

// LossRate returns the fraction of probes lost.
func (c *Cell) LossRate() float64 {
	if c.ProbesSent == 0 {
		return 0
	}
	return float64(c.ProbesLost) / float64(c.ProbesSent)
}

// clone deep-copies a cell so snapshots can leave the stripe lock.
func (c *Cell) clone() *Cell {
	d := *c
	d.RawHist = c.RawHist.Clone()
	d.PuncturedHist = c.PuncturedHist.Clone()
	d.RawSketch = c.RawSketch.Clone()
	d.PuncturedSketch = c.PuncturedSketch.Clone()
	return &d
}

// Store is the lock-striped, time-windowed aggregate store. Cells are
// partitioned across stripes by key hash; fold workers touching
// different (device, group, window) combinations proceed without
// contending, and every read is a merge of immutable snapshots.
type Store struct {
	windowMS int64
	maxCells int64
	cells    atomic.Int64
	dropped  atomic.Int64 // summaries refused because the cell cap was hit
	// epoch is the store-wide mutation counter: every cell fold, merge,
	// compaction, or removal bumps it, and /v1/stream cursors are read
	// against it (see DeltasSince in stream.go).
	epoch  atomic.Int64
	shards []storeShard

	// Lossless-retention state (see retention.go). rollupMS > 0 turns
	// expired-window compaction on: fine cells past the retention
	// cutoff merge into coarse rollup cells instead of being deleted,
	// and cap pressure evicts the coldest fine cells the same way.
	// rollupMu is a leaf lock: it is taken while holding a shard lock
	// (fold-time eviction) but never the reverse.
	rollupMS          int64
	rollupMu          sync.Mutex
	rollups           map[Key]*Cell
	rollupN           atomic.Int64
	evicted           atomic.Int64 // fine cells folded into rollups at the cap
	compacted         atomic.Int64 // fine cells folded into rollups by retention
	compactedSessions atomic.Int64 // sessions carried by compacted/evicted cells
	rollupErrors      atomic.Int64 // rollup merges refused (geometry mismatch — never expected)

	// Removal log: every cell deleted from the fine or rollup maps
	// (compaction, eviction, overflow collapse) is recorded with
	// its removal epoch so stream clients can retract stale rows. The
	// log is bounded; a cursor older than its floor forces a resync.
	removals RemovalLog
}

type storeShard struct {
	mu    sync.Mutex
	cells map[Key]*Cell
}

// DefaultStoreShards is sized for tens of fold workers over a
// device-census × scenario keyspace.
const DefaultStoreShards = 32

// DefaultMaxCells bounds distinct aggregation cells. Each cell carries
// two 1000-bucket histograms (~17 KiB) plus two quantile sketches
// (bounded centroids + fold buffer, ~10 KiB each when hot), so the
// default caps aggregate state near a GiB — without a cap, one hostile
// batch of unique device names per POST would mint unreclaimable heap
// until OOM.
const DefaultMaxCells = 32768

// NewStore builds a store. window <= 0 disables time bucketing (one
// window forever — what deterministic replay tests use); shards < 1
// selects the default stripe count.
func NewStore(window time.Duration, shards int) *Store {
	if shards < 1 {
		shards = DefaultStoreShards
	}
	st := &Store{
		windowMS: int64(window / time.Millisecond),
		maxCells: DefaultMaxCells,
		shards:   make([]storeShard, shards),
	}
	for i := range st.shards {
		st.shards[i].cells = make(map[Key]*Cell)
	}
	return st
}

// SetMaxCells overrides the distinct-cell cap (n < 1 removes it).
func (st *Store) SetMaxCells(n int64) {
	if n < 1 {
		n = int64(^uint64(0) >> 1)
	}
	st.maxCells = n
}

// Cells returns the live distinct fine-grained cell count; Dropped
// returns the summaries refused at the cap.
func (st *Store) Cells() int64   { return st.cells.Load() }
func (st *Store) Dropped() int64 { return st.dropped.Load() }

// MaxCells returns the configured distinct-cell cap.
func (st *Store) MaxCells() int64 { return st.maxCells }

// Epoch returns the store's current mutation epoch — the cursor a
// stream client starts from to receive only future changes.
func (st *Store) Epoch() int64 { return st.epoch.Load() }

// WindowFor buckets an event time (Unix ms) to its window start.
func (st *Store) WindowFor(timeMS int64) int64 {
	if st.windowMS <= 0 {
		return 0
	}
	w := timeMS - timeMS%st.windowMS
	if w < 0 {
		w = 0
	}
	return w
}

// Inlined FNV-1a: shardFor runs once per folded summary, and the
// hash/fnv hasher would be a heap allocation per call on that path.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnv1a64 extends h over s plus a terminating separator byte, so
// adjacent key fields cannot alias.
func fnv1a64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator (xor with 0 is a no-op)
	return h
}

// keyHash is the full-key FNV-1a hash shared by store sharding and the
// ingest pipelines' per-core dispatch: routing on the same hash the
// store shards by keeps each cell's folds on one pipe, so per-cell fold
// order — and thus exact store state — matches a serial fold.
func keyHash(k Key) uint64 {
	h := fnv1a64(fnvOffset64, k.Device)
	h = fnv1a64(h, k.Group)
	h = fnv1a64(h, k.Scenario)
	w := uint64(k.WindowMS)
	for i := 0; i < 8; i++ {
		h ^= (w >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

func (st *Store) shardFor(k Key) *storeShard {
	return &st.shards[keyHash(k)%uint64(len(st.shards))]
}

// KeyFor returns the aggregation cell key s folds into — exposed so the
// ingest pipelines can route a summary to the pipe owning its cell.
func (st *Store) KeyFor(s *Summary) Key {
	return Key{
		Device:   s.Device,
		Group:    s.GroupLabel(),
		Scenario: s.Scenario,
		WindowMS: st.WindowFor(s.TimeMS),
	}
}

// Fold routes one summary into its cell under the stripe lock. When
// the summary would mint a new cell past the cap, compaction-enabled
// stores first try to evict the coldest strictly-older-window cell
// into its rollup (lossless — see retention.go): this shard's first,
// then any shard's, since hashing can strand all the cold cells in
// other shards. Only if nothing older exists anywhere (or compaction
// is off) is the summary dropped and counted, so a same-window
// cardinality attack degrades only attack traffic, not the census
// already being served.
func (st *Store) Fold(s *Summary, corr time.Duration, src CorrectionSource) bool {
	k := st.KeyFor(s)
	sh := st.shardFor(k)
	for {
		sh.mu.Lock()
		c, ok := sh.cells[k]
		if !ok {
			if st.cells.Load() >= st.maxCells && !st.evictColdestLocked(sh, k.WindowMS) {
				sh.mu.Unlock()
				// The cold cells may live in other shards; evict
				// globally (no shard lock held) and retry the mint. A
				// concurrent fold may take the freed slot first, so
				// keep evicting until the mint wins or nothing older
				// is left anywhere.
				if st.evictColdestGlobal(k.WindowMS) {
					continue
				}
				st.dropped.Add(1)
				return false
			}
			c = newCell(k)
			sh.cells[k] = c
			st.cells.Add(1)
		}
		c.fold(s, corr, src)
		c.Epoch = st.epoch.Add(1)
		sh.mu.Unlock()
		return true
	}
}

// FoldRun folds a contiguous run of summaries that all belong to cell
// k — h must be keyHash(k), computed once by the pipeline router —
// under ONE stripe-lock acquisition and ONE epoch bump, using the agg
// batch entry points per summary. corrs[i]/srcs[i] are the puncturing
// results for sums[i], resolved by the caller before the lock is
// taken; fs is the worker's fold scratch. Cap handling matches Fold
// exactly — evict shard-locally, then globally until the mint wins,
// else drop — but drops the whole run (it would mint the same cell).
// Returns how many summaries were folded: len(sums) or 0.
func (st *Store) FoldRun(k Key, h uint64, sums []Summary, corrs []time.Duration, srcs []CorrectionSource, fs *foldScratch) int {
	sh := &st.shards[h%uint64(len(st.shards))]
	for {
		sh.mu.Lock()
		c, ok := sh.cells[k]
		if !ok {
			if st.cells.Load() >= st.maxCells && !st.evictColdestLocked(sh, k.WindowMS) {
				sh.mu.Unlock()
				if st.evictColdestGlobal(k.WindowMS) {
					continue
				}
				st.dropped.Add(int64(len(sums)))
				return 0
			}
			c = newCell(k)
			sh.cells[k] = c
			st.cells.Add(1)
		}
		for i := range sums {
			c.foldBatch(&sums[i], corrs[i], srcs[i], fs)
		}
		c.Epoch = st.epoch.Add(1)
		sh.mu.Unlock()
		return len(sums)
	}
}

// Snapshot deep-copies every cell — fine-grained and rollup — sorted by
// (group, device, scenario, window). Consistent per stripe, not across
// stripes — the right trade for serving queries while folds continue.
func (st *Store) Snapshot() []*Cell {
	var out []*Cell
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, c := range sh.cells {
			out = append(out, c.clone())
		}
		sh.mu.Unlock()
	}
	st.rollupMu.Lock()
	for _, c := range st.rollups {
		out = append(out, c.clone())
	}
	st.rollupMu.Unlock()
	sortCells(out)
	return out
}

func keyLess(a, b Key) bool {
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if a.Scenario != b.Scenario {
		return a.Scenario < b.Scenario
	}
	return a.WindowMS < b.WindowMS
}

func sortCells(cells []*Cell) {
	// Tie-break equal keys on span: when the rollup width equals the
	// fine window width a demoted cell and its re-minted fine sibling
	// share a Key, and without the tie-break snapshot order would
	// depend on map iteration order.
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Key != cells[j].Key {
			return keyLess(cells[i].Key, cells[j].Key)
		}
		return cells[i].SpanMS < cells[j].SpanMS
	})
}

// Rollup says which key dimensions a query keeps; dropped dimensions
// merge away.
type Rollup string

const (
	// RollupCell keeps every dimension (no merging).
	RollupCell Rollup = "cell"
	// RollupGroup merges to one cell per aggregation label — the shape
	// that compares directly against a fleet campaign report.
	RollupGroup Rollup = "group"
	// RollupDevice merges to one cell per device model.
	RollupDevice Rollup = "device"
	// RollupWindow merges to one cell per time window (a fleet-wide
	// time series).
	RollupWindow Rollup = "window"
)

// ParseRollup validates a query-string rollup name ("" → group).
func ParseRollup(s string) (Rollup, error) {
	switch Rollup(s) {
	case "":
		return RollupGroup, nil
	case RollupCell, RollupGroup, RollupDevice, RollupWindow:
		return Rollup(s), nil
	default:
		return "", fmt.Errorf("ingest: unknown rollup %q (want cell|group|device|window)", s)
	}
}

func (r Rollup) reduce(k Key) Key {
	switch r {
	case RollupGroup:
		return Key{Group: k.Group}
	case RollupDevice:
		return Key{Device: k.Device}
	case RollupWindow:
		return Key{WindowMS: k.WindowMS}
	default:
		return k
	}
}

// Query merges cells down to the rollup's dimensions — retention
// rollup cells included, so aged queries transparently read compacted
// history alongside the live fine-grained windows. It is QueryWith
// without replicated cells.
func (st *Store) Query(r Rollup) ([]*Cell, error) { return st.QueryWith(r, nil) }
