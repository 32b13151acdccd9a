package ingest

import (
	"sync"
	"time"
)

// Lossless retention. Expired windows are never deleted — that would
// be silent data loss the moment a campaign outlived the retention
// horizon. Compaction demotes them instead:
//
//   - Expired fine-grained window cells merge into coarse *rollup*
//     cells (same identity, a rollupMS-wide window). Cell.Merge is the
//     same merge law every other aggregate path uses, so counts,
//     moments, and histograms stay exact and sketch quantiles stay
//     within the documented rank-error bound.
//   - Cap pressure evicts the coldest (oldest-window) fine cells the
//     same way instead of refusing new traffic, so a long-running
//     daemon holds resident fine cells at MaxCells with zero count
//     loss.
//   - The rollup tier is itself capped (at MaxCells): past it, the
//     coldest rollups collapse into one identity-free overflow cell —
//     time and identity granularity degrade coldest-first, but fleet
//     totals survive forever in bounded memory.
//
// Every removal (compaction, eviction, collapse) is
// counted and logged, so /healthz, /metrics, the /stats footer, and
// /v1/stream retractions all see exactly what retention did.

// OverflowLabel keys the identity-collapsed overflow cell rolled-up
// history lands in past the rollup cap. A real device named this would
// merge into it — harmless for totals, documented here.
const OverflowLabel = "~overflow"

// overflowWindowMS marks the overflow cell's pseudo-window. Genuine
// windows are never negative (WindowFor clamps at 0), so the key can't
// collide with a real rollup window.
const overflowWindowMS = int64(-1)

// removalLogCap bounds the stream-retraction log; a subscriber whose
// cursor predates the log's floor is asked to resync instead.
const removalLogCap = 8192

type removal struct {
	epoch int64
	key   Key
}

// RemovalLog is the bounded retraction log behind /v1/stream and gossip
// deltas: removed cell keys stamped with their removal epochs, kept in a
// fixed ring of removalLogCap entries so logging costs O(1) however full
// the log is. Once the ring is full each entry overwrites the oldest and
// raises the floor to that entry's epoch; a cursor below the floor has
// missed retractions and must resync. The zero value is an empty log;
// it is safe for concurrent use.
type RemovalLog struct {
	mu    sync.Mutex
	ring  []removal // grows to removalLogCap, then wraps
	head  int       // oldest entry once the ring is full
	floor int64
}

// Log records key k as removed at an epoch drawn from next under the
// log lock. Drawing it inside the lock is what makes a reader that
// loads the epoch before calling Since see every removal at or below
// that epoch: the removal's draw, and so its append, precede the load.
func (l *RemovalLog) Log(next func() int64, k Key) {
	l.mu.Lock()
	e := next()
	if len(l.ring) < removalLogCap {
		l.ring = append(l.ring, removal{epoch: e, key: k})
	} else {
		l.floor = max(l.floor, l.ring[l.head].epoch)
		l.ring[l.head] = removal{epoch: e, key: k}
		l.head = (l.head + 1) % removalLogCap
	}
	l.mu.Unlock()
}

// Since returns the keys removed at epochs in (since, upto], oldest
// first. ok is false when the log has already overwritten entries past
// since: the caller must resync from scratch. A delta reader passes the
// epoch it returns as its next cursor as upto, so each removal reaches
// it once, in the first delta whose epoch covers it.
func (l *RemovalLog) Since(since, upto int64) (keys []Key, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < l.floor {
		return nil, false
	}
	for _, part := range [2][]removal{l.ring[l.head:], l.ring[:l.head]} {
		for _, r := range part {
			if r.epoch > since && r.epoch <= upto {
				keys = append(keys, r.key)
			}
		}
	}
	return keys, true
}

// EnableCompaction turns expired-window compaction on with the given
// rollup window width (clamped to at least one store window). A no-op
// on stores without time bucketing — there is nothing to expire.
func (st *Store) EnableCompaction(rollup time.Duration) {
	if st.windowMS <= 0 {
		return
	}
	ms := int64(rollup / time.Millisecond)
	if ms < st.windowMS {
		ms = st.windowMS
	}
	st.rollupMS = ms
	st.rollupMu.Lock()
	if st.rollups == nil {
		st.rollups = make(map[Key]*Cell)
	}
	st.rollupMu.Unlock()
}

// CompactionEnabled reports whether expired windows compact into
// rollups; without it (no time bucketing, or EnableCompaction never
// called) fine cells are never removed.
func (st *Store) CompactionEnabled() bool { return st.windowMS > 0 && st.rollupMS > 0 }

// RollupWindow returns the rollup window width (ms); 0 when compaction
// is off.
func (st *Store) RollupWindow() int64 { return st.rollupMS }

// RollupCells returns the resident rollup-cell count.
func (st *Store) RollupCells() int64 { return st.rollupN.Load() }

// Evicted / Compacted / CompactedSessions expose the retention
// counters: fine cells folded into rollups at the cap, fine cells
// folded into rollups by retention, and the sessions those carried. A
// rollup merge cannot fail, so every demoted cell's sessions land in
// its rollup and no loss needs counting.
func (st *Store) Evicted() int64           { return st.evicted.Load() }
func (st *Store) Compacted() int64         { return st.compacted.Load() }
func (st *Store) CompactedSessions() int64 { return st.compactedSessions.Load() }

// rollupKey maps a fine cell's key to the rollup cell it compacts
// into: same identity, the enclosing coarse window.
func (st *Store) rollupKey(k Key) Key {
	return Key{
		Device:   k.Device,
		Group:    k.Group,
		Scenario: k.Scenario,
		WindowMS: k.WindowMS - k.WindowMS%st.rollupMS,
	}
}

// Compact folds every fine cell whose window closed at or before
// cutoffMS into its rollup cell, returning how many cells (and the
// sessions they carried) were demoted — lossless for
// counts/moments/histograms, bounded-error for sketch quantiles per the
// agg merge laws. Expiry follows the window, so each shard's expired
// cells are the head of its cold order and leave it coldest first.
func (st *Store) Compact(cutoffMS int64) (cells, sessions int64) {
	if !st.CompactionEnabled() {
		return 0, 0
	}
	// A window has closed at the cutoff when it starts before this.
	closed := cutoffMS - st.windowMS + 1
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for c := sh.takeColdest(closed); c != nil; c = sh.takeColdest(closed) {
			st.cells.Add(-1)
			sessions += c.Sessions
			cells++
			st.absorbIntoRollup(c)
		}
		sh.mu.Unlock()
	}
	st.compacted.Add(cells)
	st.compactedSessions.Add(sessions)
	return cells, sessions
}

// EnforceCap demotes the globally coldest closed-window fine cells
// into their rollups until the fine tier is back under MaxCells —
// the janitor's complement to fold-time eviction, which runs only when
// a mint finds the tier full. It runs that eviction's victim search
// (evictColdestGlobal) bounded by nowMS's window: a window is closed
// exactly when it starts before that one, and cells in a still-open
// window are never demoted — they are actively folding. Returns how
// many cells it demoted.
func (st *Store) EnforceCap(nowMS int64) int64 {
	if !st.CompactionEnabled() {
		return 0
	}
	open := st.WindowFor(nowMS)
	var n int64
	for st.cells.Load() > st.maxCells {
		found, demoted := st.evictColdestGlobal(open)
		if !found {
			break
		}
		if demoted {
			n++
		}
	}
	return n
}

// colder orders keys coldest first: the older window, then keyLess.
// Every eviction, compaction and collapse takes its victims in this
// order.
func colder(a, b Key) bool {
	if a.WindowMS != b.WindowMS {
		return a.WindowMS < b.WindowMS
	}
	return keyLess(a, b)
}

// coldOrder is a binary min-heap of cells in colder order, so its head
// is the coldest cell. Each store shard keeps one over its fine cells
// and the store one over its rollups (the overflow cell excepted):
// every retention victim is a head, taken in O(log n) instead of a
// scan. A cell's key never changes while it is in a heap.
type coldOrder []*Cell

func (h coldOrder) less(i, j int) bool { return colder(h[i].Key, h[j].Key) }

func (h *coldOrder) push(c *Cell) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the head; the heap must not be empty.
func (h *coldOrder) pop() *Cell {
	s := *h
	c, n := s[0], len(s)-1
	s[0], s[n] = s[n], nil
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s.less(r, l) {
			l = r
		}
		if !s.less(l, i) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*h = s
	return c
}

// takeColdest unlinks and returns the shard's coldest cell when its
// window starts before beforeMS, else nil. Called with sh.mu held.
func (sh *storeShard) takeColdest(beforeMS int64) *Cell {
	if len(sh.cold) == 0 || sh.cold[0].Key.WindowMS >= beforeMS {
		return nil
	}
	c := sh.cold.pop()
	delete(sh.cells, c.Key)
	return c
}

// evictColdestLocked demotes this shard's coldest cell into its rollup
// to make room for a new cell, called with sh.mu held, and counts it
// as evicted. Only a cell in a window strictly older than the incoming
// key's qualifies — a same-window cardinality flood finds nothing to
// evict and is dropped (and counted) by the caller instead of churning
// live cells.
func (st *Store) evictColdestLocked(sh *storeShard, newWindowMS int64) bool {
	if !st.CompactionEnabled() {
		return false
	}
	victim := sh.takeColdest(newWindowMS)
	if victim == nil {
		return false
	}
	st.cells.Add(-1)
	st.evicted.Add(1)
	st.compactedSessions.Add(victim.Sessions)
	st.absorbIntoRollup(victim)
	return true
}

// evictColdestGlobal demotes the store's coldest strictly-older-window
// cell across ALL shards, called with no shard lock held. It exists
// because key hashing redistributes every window: under churn a shard
// can receive more new-window cells than it holds old-window victims,
// so shard-local eviction alone strands cold cells in other shards and
// forces drops even though the store as a whole has room to reclaim.
// It compares the shard heads, then evicts the winner's, taking shard
// locks one at a time (never nested), so it cannot deadlock against
// concurrent folds. found reports whether a strictly older cell
// existed — true even when a concurrent compaction or eviction took
// that shard's older cells first, since either way the caller's retry
// may find room; false only when nothing older is left anywhere.
// demoted reports whether this call demoted a cell itself.
func (st *Store) evictColdestGlobal(newWindowMS int64) (found, demoted bool) {
	if !st.CompactionEnabled() {
		return false, false
	}
	var vk Key
	vs := -1
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		if len(sh.cold) > 0 && sh.cold[0].Key.WindowMS < newWindowMS && (vs < 0 || colder(sh.cold[0].Key, vk)) {
			vk, vs = sh.cold[0].Key, i
		}
		sh.mu.Unlock()
	}
	if vs < 0 {
		return false, false
	}
	sh := &st.shards[vs]
	sh.mu.Lock()
	demoted = st.evictColdestLocked(sh, newWindowMS)
	sh.mu.Unlock()
	return true, demoted
}

// absorbIntoRollup merges one demoted fine cell into its rollup cell,
// logging the fine key's removal for stream retraction, and recycles
// the dead fine cell. The removal is logged before the rollup is
// stamped: when the window is aligned to the rollup width the two keys
// are equal, and the rollup's epoch must exceed the removal's so that
// every delta retracting the key delivers the rollup too. rollupMu is a
// leaf lock (never taken before a shard lock inside this package), so
// calling this while holding a shard lock is safe.
func (st *Store) absorbIntoRollup(c *Cell) {
	rk := st.rollupKey(c.Key)
	st.logRemoval(c.Key)
	st.rollupMu.Lock()
	dst, ok := st.rollups[rk]
	if !ok {
		dst = st.mintCell(rk)
		dst.SpanMS = st.rollupMS
		st.rollups[rk] = dst
		st.rollupCold.push(dst)
		st.rollupN.Add(1)
	}
	dst.Merge(c)
	dst.Epoch = st.epoch.Add(1)
	st.capRollupsLocked()
	st.rollupMu.Unlock()
	st.recycle(c)
}

// capRollupsLocked bounds the rollup tier at MaxCells: past it, the
// coldest non-overflow rollups — the heads of rollupCold — collapse
// into the single overflow cell (identity and window dropped, totals
// preserved) and are recycled. Evicts down to ~7/8 of the cap in one
// pass, so a pass runs once per MaxCells/8 rollup mints rather than per
// absorbed cell. Minting the overflow cell counts against the tier, so
// that pass takes one victim more. Called with rollupMu held.
func (st *Store) capRollupsLocked() {
	if st.rollupN.Load() <= st.maxCells {
		return
	}
	target := st.maxCells - st.maxCells/8
	ok := Key{Device: OverflowLabel, Group: OverflowLabel, WindowMS: overflowWindowMS}
	// target is at least 1, so past it the tier holds a rollup besides
	// the overflow cell, and rollupCold is not empty.
	for st.rollupN.Load() > target {
		c := st.rollupCold.pop()
		delete(st.rollups, c.Key)
		st.rollupN.Add(-1)
		dst, exists := st.rollups[ok]
		if !exists {
			dst = st.mintCell(ok)
			dst.SpanMS = -1
			st.rollups[ok] = dst
			st.rollupN.Add(1)
		}
		dst.Merge(c)
		dst.Epoch = st.epoch.Add(1)
		st.logRemoval(c.Key)
		st.recycle(c)
	}
}

// logRemoval records a deleted cell key at a fresh epoch so stream
// subscribers retract the row.
func (st *Store) logRemoval(k Key) { st.removals.Log(st.NextEpoch, k) }
