package ingest

import (
	"slices"
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
// agg merge laws.
func (st *Store) Compact(cutoffMS int64) (cells, sessions int64) {
	if !st.CompactionEnabled() {
		return 0, 0
	}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		var expired []*Cell
		for k, c := range sh.cells {
			if k.WindowMS+st.windowMS <= cutoffMS {
				delete(sh.cells, k)
				expired = append(expired, c)
			}
		}
		sh.mu.Unlock()
		if len(expired) == 0 {
			continue
		}
		st.cells.Add(int64(-len(expired)))
		for _, c := range expired {
			sessions += c.Sessions
			st.absorbIntoRollup(c)
		}
		cells += int64(len(expired))
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
// Every eviction and collapse picks its victims in this order.
func colder(a, b Key) bool {
	if a.WindowMS != b.WindowMS {
		return a.WindowMS < b.WindowMS
	}
	return keyLess(a, b)
}

// evictColdestLocked demotes this shard's coldest cell into its rollup
// to make room for a new cell, called with sh.mu held. Only cells in a
// window strictly older than the incoming key's qualify — a
// same-window cardinality flood finds nothing to evict and is dropped
// (and counted) by the caller instead of churning live cells.
func (st *Store) evictColdestLocked(sh *storeShard, newWindowMS int64) bool {
	if !st.CompactionEnabled() {
		return false
	}
	var victim *Cell
	for k, c := range sh.cells {
		if k.WindowMS < newWindowMS && (victim == nil || colder(k, victim.Key)) {
			victim = c
		}
	}
	if victim == nil {
		return false
	}
	delete(sh.cells, victim.Key)
	st.cells.Add(-1)
	st.demote(victim)
	return true
}

// evictColdestGlobal demotes the store's coldest strictly-older-window
// cell across ALL shards, called with no shard lock held. It exists
// because key hashing redistributes every window: under churn a shard
// can receive more new-window cells than it holds old-window victims,
// so shard-local eviction alone strands cold cells in other shards and
// forces drops even though the store as a whole has room to reclaim.
// Shard locks are taken one at a time (never nested), so this cannot
// deadlock against concurrent folds. found reports whether a strictly
// older cell existed — true even when a concurrent compaction or
// eviction removed the victim first, since either way the caller's
// retry may find room; false only when nothing older is left anywhere.
// demoted reports whether this call demoted the victim itself.
func (st *Store) evictColdestGlobal(newWindowMS int64) (found, demoted bool) {
	if !st.CompactionEnabled() {
		return false, false
	}
	var vk Key
	vs := -1
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.cells {
			if k.WindowMS < newWindowMS && (vs < 0 || colder(k, vk)) {
				vk, vs = k, i
			}
		}
		sh.mu.Unlock()
	}
	if vs < 0 {
		return false, false
	}
	return true, st.evict(&st.shards[vs], vk)
}

// evict unlinks fine cell k from shard sh under the shard lock, then
// demotes it. False when the cell was already gone (a concurrent
// compaction or eviction took it).
func (st *Store) evict(sh *storeShard, k Key) bool {
	sh.mu.Lock()
	c, ok := sh.cells[k]
	if ok {
		delete(sh.cells, k)
		st.cells.Add(-1)
	}
	sh.mu.Unlock()
	if ok {
		st.demote(c)
	}
	return ok
}

// demote counts an unlinked fine cell as evicted and absorbs it into
// its rollup.
func (st *Store) demote(c *Cell) {
	st.evicted.Add(1)
	st.compactedSessions.Add(c.Sessions)
	st.absorbIntoRollup(c)
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
		st.rollupN.Add(1)
	}
	dst.Merge(c)
	dst.Epoch = st.epoch.Add(1)
	st.capRollupsLocked()
	st.rollupMu.Unlock()
	st.recycle(c)
}

// capRollupsLocked bounds the rollup tier at MaxCells: past it, the
// coldest non-overflow rollups collapse into the single overflow cell
// (identity and window dropped, totals preserved) and are recycled.
// Evicts down to ~7/8 of the cap in one pass so the scan amortizes
// instead of running per absorbed cell. The pass orders only its
// victims — rollupN−target of them, plus one when it mints the
// overflow cell — not the whole tier. Called with rollupMu held.
func (st *Store) capRollupsLocked() {
	n := st.rollupN.Load()
	if n <= st.maxCells {
		return
	}
	target := st.maxCells - st.maxCells/8
	ok := Key{Device: OverflowLabel, Group: OverflowLabel, WindowMS: overflowWindowMS}
	victims := n - target
	if _, exists := st.rollups[ok]; !exists {
		victims++
	}
	all := st.rollupScratch[:0]
	for k := range st.rollups {
		if k.WindowMS != overflowWindowMS {
			all = append(all, k)
		}
	}
	for _, k := range coldestKeys(all, int(min(victims, int64(len(all))))) {
		if st.rollupN.Load() <= target {
			break
		}
		c := st.rollups[k]
		delete(st.rollups, k)
		st.rollupN.Add(-1)
		dst, exists := st.rollups[ok]
		if !exists {
			dst = st.mintCell(ok)
			dst.SpanMS = -1
			st.rollups[ok] = dst
			st.rollupN.Add(1)
		}
		dst.Merge(c)
		st.recycle(c)
		dst.Epoch = st.epoch.Add(1)
		st.logRemoval(k)
	}
	clear(all) // drop the key strings until the next pass
	st.rollupScratch = all[:0]
}

// coldestKeys reorders keys so that its first n entries are the n
// coldest in colder order, sorted, and returns them; 0 <= n <=
// len(keys). A quickselect partitions the rest without ordering it.
// colder is a strict total order over distinct keys, so the result is
// exactly the first n keys of a full sort.
func coldestKeys(keys []Key, n int) []Key {
	lo, hi := 0, len(keys)-1
	for n > 0 && lo < hi {
		p := partitionColder(keys, lo, hi)
		switch {
		case p == n-1:
			lo = hi
		case p < n-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	out := keys[:n]
	slices.SortFunc(out, func(a, b Key) int {
		if colder(a, b) {
			return -1
		}
		if colder(b, a) {
			return 1
		}
		return 0
	})
	return out
}

// partitionColder partitions keys[lo..hi] around a median-of-three
// pivot and returns the pivot's final index: everything before it is
// colder, everything after it warmer.
func partitionColder(keys []Key, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if colder(keys[mid], keys[lo]) {
		keys[mid], keys[lo] = keys[lo], keys[mid]
	}
	if colder(keys[hi], keys[lo]) {
		keys[hi], keys[lo] = keys[lo], keys[hi]
	}
	if colder(keys[mid], keys[hi]) {
		keys[mid], keys[hi] = keys[hi], keys[mid]
	}
	pivot, i := keys[hi], lo
	for j := lo; j < hi; j++ {
		if colder(keys[j], pivot) {
			keys[i], keys[j] = keys[j], keys[i]
			i++
		}
	}
	keys[i], keys[hi] = keys[hi], keys[i]
	return i
}

// logRemoval records a deleted cell key at a fresh epoch so stream
// subscribers retract the row.
func (st *Store) logRemoval(k Key) { st.removals.Log(st.NextEpoch, k) }
