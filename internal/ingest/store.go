package ingest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/puncture"
	"repro/internal/wirebuf"
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
	// land. All three count the same observations (see Validate).
	Raw       agg.Moments `json:"raw"`
	RawHist   *agg.Hist   `json:"raw_hist"`
	RawSketch *agg.Sketch `json:"raw_sketch,omitempty"`

	Punctured       agg.Moments `json:"punctured"`
	PuncturedHist   *agg.Hist   `json:"punctured_hist"`
	PuncturedSketch *agg.Sketch `json:"punctured_sketch,omitempty"`

	// Correction folds the per-summary correction applied (ns, one
	// observation per punctured session).
	Correction agg.Moments `json:"correction"`

	Inflation agg.Moments `json:"inflation"`
	// Overheads folds the attributing sessions' overhead shares (its
	// Sessions and Correction methods are shadowed by the fields of
	// those names).
	puncture.Overheads

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

// reset turns a dead store-minted cell back into newCell(k)'s state,
// keeping its histograms' bin arrays and its sketches' capacity.
func (c *Cell) reset(k Key) {
	rh, ph, rs, ps := c.RawHist, c.PuncturedHist, c.RawSketch, c.PuncturedSketch
	rh.Reset()
	ph.Reset()
	rs.Reset(0)
	ps.Reset(0)
	*c = Cell{Key: k, RawHist: rh, PuncturedHist: ph, RawSketch: rs, PuncturedSketch: ps}
}

// raw and punctured view the cell's two tracks.
func (c *Cell) raw() agg.Track {
	return agg.Track{Moments: &c.Raw, Hist: c.RawHist, Sketch: c.RawSketch}
}

func (c *Cell) punctured() agg.Track {
	return agg.Track{Moments: &c.Punctured, Hist: c.PuncturedHist, Sketch: c.PuncturedSketch}
}

// Validate enforces the coverage invariant on a cell built outside this
// process (a gossip replica): in each of the raw and punctured tracks
// the moments, histogram and sketch cover the same observations
// (agg.Track.Check). Store-built cells hold it by construction, and
// Merge and the stats readers assume it.
func (c *Cell) Validate() error {
	if err := c.raw().Check(); err != nil {
		return fmt.Errorf("ingest: cell %+v: raw track: %w", c.Key, err)
	}
	if err := c.punctured().Check(); err != nil {
		return fmt.Errorf("ingest: cell %+v: punctured track: %w", c.Key, err)
	}
	return nil
}

// Cell binary form: the payload an ACMG gossip frame carries per cell
// (internal/cluster frames it with a length prefix), decoded with the
// same discipline as the ACMB summary wire. Layout:
//
//	key (AppendKey) · span_ms (zigzag) · 11 counters (uvarint, in
//	counters() order) · 7 moments (agg.Moments.AppendBinary, in
//	moments() order) · track-flags byte (cellTracks) · raw and punctured
//	histograms (agg.Hist.AppendBinary) · raw and punctured sketches
//	(agg.AppendSketch)

// cellTracks is a cell payload's track-flags byte: one bit each for the
// raw and punctured histograms and sketches. Every cell carries all four
// tracks, so the byte is fixed, and a payload with any other value is
// refused.
const cellTracks = 0x0F

// counters lists the cell's session and probe counters in wire order.
func (c *Cell) counters() [11]*int64 {
	return [...]*int64{&c.Sessions, &c.ProbesSent, &c.ProbesLost, &c.BackgroundSent,
		&c.PSMActiveSessions, &c.CalibratedSessions, &c.ReportedSessions, &c.LearnedSessions,
		&c.FamilySessions, &c.GlobalSessions, &c.UncorrectedSessions}
}

// moments lists the cell's moment tracks in wire order.
func (c *Cell) moments() [7]*agg.Moments {
	return [...]*agg.Moments{&c.Raw, &c.Punctured, &c.Correction, &c.Inflation,
		&c.User, &c.SDIO, &c.PSM}
}

// AppendKey appends k's binary form — device, group and scenario
// strings, each at most MaxKeyLen bytes, then the window (zigzag).
func AppendKey(dst []byte, k Key) ([]byte, error) {
	if len(k.Device) > MaxKeyLen || len(k.Group) > MaxKeyLen || len(k.Scenario) > MaxKeyLen {
		return nil, fmt.Errorf("%w: key field over %d bytes", wirebuf.ErrFrameTooBig, MaxKeyLen)
	}
	dst = wirebuf.AppendString(dst, k.Device)
	dst = wirebuf.AppendString(dst, k.Group)
	dst = wirebuf.AppendString(dst, k.Scenario)
	return binary.AppendUvarint(dst, wirebuf.Zigzag(k.WindowMS)), nil
}

// ReadKey decodes one AppendKey form off d.
func ReadKey(d *wirebuf.Cursor) (Key, error) {
	var k Key
	for _, p := range [...]*string{&k.Device, &k.Group, &k.Scenario} {
		b, err := d.Field(MaxKeyLen)
		if err != nil {
			return k, err
		}
		*p = string(b)
	}
	var err error
	k.WindowMS, err = d.Varint()
	return k, err
}

// AppendCell appends c's binary form. Field order must match
// DecodeCell exactly.
func AppendCell(dst []byte, c *Cell) ([]byte, error) {
	dst, err := AppendKey(dst, c.Key)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, wirebuf.Zigzag(c.SpanMS))
	for _, p := range c.counters() {
		if *p < 0 {
			return nil, fmt.Errorf("ingest: negative counter %d in cell", *p)
		}
		dst = binary.AppendUvarint(dst, uint64(*p))
	}
	for _, m := range c.moments() {
		dst = m.AppendBinary(dst)
	}
	dst = append(dst, cellTracks)
	dst = c.RawHist.AppendBinary(dst)
	dst = c.PuncturedHist.AppendBinary(dst)
	dst = agg.AppendSketch(dst, c.RawSketch)
	return agg.AppendSketch(dst, c.PuncturedSketch), nil
}

// DecodeCell parses one AppendCell payload, which must be exactly one
// encoded cell. Both histograms must encode the duration geometry,
// the only one a Hist can hold, and the decoded cell must pass
// Validate.
func DecodeCell(payload []byte) (*Cell, error) {
	d := wirebuf.NewCursor(payload)
	c := &Cell{RawHist: agg.NewDurationHist(), PuncturedHist: agg.NewDurationHist()}
	var err error
	if c.Key, err = ReadKey(&d); err != nil {
		return nil, err
	}
	if c.SpanMS, err = d.Varint(); err != nil {
		return nil, err
	}
	for _, p := range c.counters() {
		if *p, err = d.Uint63(); err != nil {
			return nil, err
		}
	}
	for _, m := range c.moments() {
		if err := m.ReadBinary(&d); err != nil {
			return nil, err
		}
	}
	flags, err := d.Byte()
	if err != nil {
		return nil, err
	}
	if flags != cellTracks {
		return nil, fmt.Errorf("ingest: cell track flags %#x, want %#x", flags, cellTracks)
	}
	if err := c.RawHist.ReadBinary(&d); err != nil {
		return nil, err
	}
	if err := c.PuncturedHist.ReadBinary(&d); err != nil {
		return nil, err
	}
	if c.RawSketch, err = agg.ReadSketch(&d); err != nil {
		return nil, err
	}
	if c.PuncturedSketch, err = agg.ReadSketch(&d); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after cell", d.Remaining())
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// foldScratch is a store shard's reusable fold workspace: the raw and
// punctured observation runs are materialized once per summary, then
// each aggregate absorbs its run with one AddMulti call. Used only
// under the shard lock; never retained past the call.
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

// fold absorbs one summary with its puncturing correction. One pass
// builds the raw and clamped-punctured runs in fs, then each aggregate
// absorbs its whole run. Every AddMulti is defined to match its serial
// Add sequence exactly (the agg batch tests pin this), so the cell is
// the same whether its summaries arrive one by one or in runs.
func (c *Cell) fold(s *Summary, corr time.Duration, src CorrectionSource, fs *foldScratch) {
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
		c.raw().AddMulti(fs.rawF, fs.rawD)
		c.punctured().AddMulti(fs.punF, fs.punD)
	} else if s.Sketch != nil && s.Sketch.Count > 0 {
		c.foldSketch(s.Sketch, corr)
	}
	if s.Inflation > 0 {
		c.Inflation.Add(s.Inflation)
	}
	if s.LayersOK {
		c.Overheads.Add(s.attribution())
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
// for sessions that could not retain or transmit raw RTTs (see
// agg.Track.AddSketch): raw as posted, punctured shifted down by the
// correction with the same ≥0 clamp the per-observation path applies.
func (c *Cell) foldSketch(sk *agg.Sketch, corr time.Duration) {
	// One clone+flush serves both tracks: Shifted on the already-flushed
	// copy skips a second buffer sort under the stripe lock.
	flat := sk.Clone()
	flat.Flush()
	c.raw().AddSketch(sk, flat)
	shifted := flat.Shifted(-float64(corr), 0)
	c.punctured().AddSketch(shifted, shifted)
}

// Merge folds another cell's aggregates in (keys need not match; the
// receiver keeps its own — this is what query-time rollups rely on).
// Both cells must hold the coverage invariant: store-built, or a
// replica that passed Validate. Every aggregate merges with any other
// of its kind, so a merge cannot fail.
func (c *Cell) Merge(o *Cell) {
	if o == nil {
		return
	}
	c.raw().Merge(o.raw())
	c.punctured().Merge(o.punctured())
	if o.Epoch > c.Epoch {
		c.Epoch = o.Epoch
	}
	c.Sessions += o.Sessions
	c.ProbesSent += o.ProbesSent
	c.ProbesLost += o.ProbesLost
	c.BackgroundSent += o.BackgroundSent
	c.Correction.Merge(o.Correction)
	c.Inflation.Merge(o.Inflation)
	c.Overheads.Merge(&o.Overheads)
	c.PSMActiveSessions += o.PSMActiveSessions
	c.CalibratedSessions += o.CalibratedSessions
	c.ReportedSessions += o.ReportedSessions
	c.LearnedSessions += o.LearnedSessions
	c.FamilySessions += o.FamilySessions
	c.GlobalSessions += o.GlobalSessions
	c.UncorrectedSessions += o.UncorrectedSessions
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
	rollupCold        coldOrder // the rollups but the overflow cell, coldest first
	rollupN           atomic.Int64
	evicted           atomic.Int64 // fine cells folded into rollups at the cap
	compacted         atomic.Int64 // fine cells folded into rollups by retention
	compactedSessions atomic.Int64 // sessions carried by compacted/evicted cells

	// Removal log: every cell deleted from the fine or rollup maps
	// (compaction, eviction, overflow collapse) is recorded with
	// its removal epoch so stream clients can retract stale rows. The
	// log is bounded; a cursor older than its floor forces a resync.
	removals RemovalLog

	// Recycled cells (see mintCell). freeMu is a leaf lock below both
	// the shard locks and rollupMu.
	freeMu sync.Mutex
	free   []*Cell
}

// storeShard is one lock stripe. cold holds the same cells as cells,
// coldest first (see retention.go). cold and fs are touched only under
// mu. When the shard count is a multiple of the pipe count (32 shards
// and a power-of-two worker count), every key of a shard routes to one
// pipe, so its scratch stays warm on one fold worker.
type storeShard struct {
	mu    sync.Mutex
	cells map[Key]*Cell
	cold  coldOrder
	fs    foldScratch
}

// DefaultStoreShards is sized for tens of fold workers over a
// device-census × scenario keyspace.
const DefaultStoreShards = 32

// DefaultMaxCells bounds distinct aggregation cells. Each cell carries
// two 1000-bucket histograms that store only their occupied span (a
// few words for a churn cell's handful of RTTs, ~16 KiB at worst when
// every bucket is hit) plus two quantile sketches (bounded centroids +
// fold buffer + pending merges, ~10 KiB each when hot), so the default
// caps worst-case aggregate state near a GiB — without a cap, one
// hostile batch of unique device names per POST would mint
// unreclaimable heap until OOM. The rollup tier holds up to as many
// again, and the recycled-cell free list at most maxFreeCells more.
const DefaultMaxCells = 32768

// maxFreeCells bounds the recycled-cell free list. A rollup-cap
// collapse frees MaxCells/8 rollups at once; past this bound the rest
// are left to the garbage collector instead of pinning their
// histograms.
const maxFreeCells = 256

// mintCell returns an empty cell for key k — a recycled one when the
// free list has any, else a fresh newCell. Under churn every summary
// mints two cells (its fine cell, and the rollup its evicted
// predecessor lands in) that die within about a window; recycling them
// reuses their histograms' span arrays and their sketches' buffers, and
// the histogram reset is O(1).
func (st *Store) mintCell(k Key) *Cell {
	st.freeMu.Lock()
	n := len(st.free)
	if n == 0 {
		st.freeMu.Unlock()
		return newCell(k)
	}
	c := st.free[n-1]
	st.free[n-1] = nil
	st.free = st.free[:n-1]
	st.freeMu.Unlock()
	c.reset(k)
	return c
}

// recycle hands a dead cell to the free list. Callers pass only a cell
// they have just removed from the store's maps and merged into another
// store cell: the store minted it, and no reader still holds it, since
// every reader copies what it needs under the lock that guarded the
// map.
// Replica and decoded cells never reach here.
func (st *Store) recycle(c *Cell) {
	st.freeMu.Lock()
	if len(st.free) < maxFreeCells {
		st.free = append(st.free, c)
	}
	st.freeMu.Unlock()
}

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

// keyHash is the full-key hash (puncture.KeyHash) shared by store
// striping and the ingest pipelines' per-core dispatch: routing on the
// same hash the store stripes by keeps each cell's folds on one pipe,
// so per-cell fold order — and thus exact store state — matches a
// serial fold. Both take the hash modulo their count, so when the
// stripe count is a multiple of the pipe count each stripe is folded
// by one pipe only. The hash's fmix64 finalizer is what spreads a
// cell whose group defaults to its device over every pipe and stripe
// (TestKeyHashSpread).
func keyHash(k Key) uint64 {
	return puncture.NewKeyHash().
		AddString(k.Device).
		AddString(k.Group).
		AddString(k.Scenario).
		AddUint64(uint64(k.WindowMS)).
		Sum64()
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

// Fold routes one summary into its cell: a one-summary FoldRun. The
// slice literals stay on the stack, so this allocates nothing.
func (st *Store) Fold(s *Summary, corr time.Duration, src CorrectionSource) bool {
	k := st.KeyFor(s)
	return st.FoldRun(k, keyHash(k), []Summary{*s}, []time.Duration{corr}, []CorrectionSource{src}) == 1
}

// FoldRun folds a contiguous run of summaries that all belong to cell
// k — h must be keyHash(k), computed once by the pipeline router —
// under ONE stripe-lock acquisition and ONE epoch bump. corrs[i]/srcs[i]
// are the puncturing results for sums[i], resolved by the caller before
// the lock is taken. Returns how many summaries were folded: len(sums)
// or 0.
//
// When the run would mint a new cell past the cap, compaction-enabled
// stores first try to evict the coldest strictly-older-window cell into
// its rollup (lossless — see retention.go): this shard's first, then
// any shard's, since hashing can strand all the cold cells in other
// shards. Only if nothing older exists anywhere (or compaction is off)
// is the whole run dropped and counted, so a same-window cardinality
// attack degrades only attack traffic, not the census already being
// served.
func (st *Store) FoldRun(k Key, h uint64, sums []Summary, corrs []time.Duration, srcs []CorrectionSource) int {
	sh := &st.shards[h%uint64(len(st.shards))]
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
				if found, _ := st.evictColdestGlobal(k.WindowMS); found {
					continue
				}
				st.dropped.Add(int64(len(sums)))
				return 0
			}
			c = st.mintCell(k)
			sh.cells[k] = c
			sh.cold.push(c)
			st.cells.Add(1)
		}
		for i := range sums {
			c.fold(&sums[i], corrs[i], srcs[i], &sh.fs)
		}
		c.Epoch = st.epoch.Add(1)
		sh.mu.Unlock()
		return len(sums)
	}
}

// Store walk modes (see each): a twin pair visited as one merged cell,
// or as its two stored cells.
const (
	mergeTwins = true
	twinsApart = false
)

// each visits the cells whose state changed since `since`: the fine
// cells shard by shard under each shard's lock, then the rollups under
// rollupMu. Every cell a reader can see carries an epoch of at least 1,
// so since 0 visits them all. fn runs under those locks: it must take
// no lock and keep no reference to the cell.
//
// each is the one place that knows a Key can name two cells: a fine
// cell re-minted in a window already compacted into an aligned rollup
// shares that rollup's Key (rollupKey keeps a window that is a multiple
// of the rollup width). With mergeTwins, fn sees one cell per Key: such
// a twin pair is visited once, whenever either side changed, as a fresh
// cell merging the fine cell and then the rollup, and the rollup pass
// skips the keys the shard pass served. Looking twins up takes
// rollupMu, a leaf lock, under each stripe lock. twinsApart visits
// every stored cell and takes no lock inside the shard walk: it is for
// readers that merge cells by key anyway.
func (st *Store) each(since int64, twins bool, fn func(*Cell)) {
	twins = twins && st.rollupMS > 0
	var served map[Key]bool
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		if twins {
			st.rollupMu.Lock()
		}
		for k, c := range sh.cells {
			var r *Cell
			if twins && k.WindowMS%st.rollupMS == 0 {
				r = st.rollups[k]
			}
			if r == nil {
				if c.Epoch > since {
					fn(c)
				}
				continue
			}
			if served == nil {
				served = map[Key]bool{}
			}
			served[k] = true
			if c.Epoch > since || r.Epoch > since {
				m := newCell(k)
				m.SpanMS = r.SpanMS // the pair spans the rollup window
				m.Merge(c)
				m.Merge(r)
				fn(m)
			}
		}
		if twins {
			st.rollupMu.Unlock()
		}
		sh.mu.Unlock()
	}
	st.rollupMu.Lock()
	for k, c := range st.rollups {
		if c.Epoch > since && !served[k] {
			fn(c)
		}
	}
	st.rollupMu.Unlock()
}

// Snapshot deep-copies the store one cell per Key (see each), sorted by
// (group, device, scenario, window). Consistent per stripe, not across
// stripes — the right trade for serving queries while folds continue.
func (st *Store) Snapshot() []*Cell {
	var out []*Cell
	st.each(0, mergeTwins, func(c *Cell) { out = append(out, c.clone()) })
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
	sort.Slice(cells, func(i, j int) bool { return keyLess(cells[i].Key, cells[j].Key) })
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
// without replicated cells; the error is always nil.
func (st *Store) Query(r Rollup) ([]*Cell, error) { return st.QueryWith(r, nil), nil }
