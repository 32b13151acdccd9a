package ingest

import (
	"sort"
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

// Log records key k as removed at epoch e.
func (l *RemovalLog) Log(e int64, k Key) {
	l.mu.Lock()
	if len(l.ring) < removalLogCap {
		l.ring = append(l.ring, removal{epoch: e, key: k})
	} else {
		l.floor = max(l.floor, l.ring[l.head].epoch)
		l.ring[l.head] = removal{epoch: e, key: k}
		l.head = (l.head + 1) % removalLogCap
	}
	l.mu.Unlock()
}

// Since returns the keys removed after the cursor, oldest first. ok is
// false when the log has already overwritten entries past since: the
// caller must resync from scratch.
func (l *RemovalLog) Since(since int64) (keys []Key, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < l.floor {
		return nil, false
	}
	for _, part := range [2][]removal{l.ring[l.head:], l.ring[:l.head]} {
		for _, r := range part {
			if r.epoch > since {
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

// Evicted / Compacted / CompactedSessions / RollupErrors expose the
// retention counters: fine cells folded into rollups at the cap, fine
// cells folded into rollups by retention, the sessions those carried,
// and rollup merges refused on a histogram-geometry mismatch (never
// expected — both sides are newCell-built — but a silent loss if it
// ever happened, so it is counted).
func (st *Store) Evicted() int64           { return st.evicted.Load() }
func (st *Store) Compacted() int64         { return st.compacted.Load() }
func (st *Store) CompactedSessions() int64 { return st.compactedSessions.Load() }
func (st *Store) RollupErrors() int64      { return st.rollupErrors.Load() }

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
// the janitor's complement to fold-time eviction (which only scans one
// shard). Cells in a still-open window (relative to nowMS) are never
// demoted: they are actively folding. Returns how many were evicted.
func (st *Store) EnforceCap(nowMS int64) int64 {
	if !st.CompactionEnabled() {
		return 0
	}
	over := st.cells.Load() - st.maxCells
	if over <= 0 {
		return 0
	}
	type windowedKey struct {
		w     int64
		k     Key
		shard int
	}
	var all []windowedKey
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.cells {
			all = append(all, windowedKey{k.WindowMS, k, i})
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w < all[j].w
		}
		return keyLess(all[i].k, all[j].k)
	})
	var n int64
	for _, e := range all {
		if n >= over {
			break
		}
		if e.w+st.windowMS > nowMS {
			break // sorted ascending: everything from here is still open
		}
		sh := &st.shards[e.shard]
		sh.mu.Lock()
		c, ok := sh.cells[e.k]
		if ok {
			delete(sh.cells, e.k)
			st.cells.Add(-1)
		}
		sh.mu.Unlock()
		if !ok {
			continue // raced with fold-time eviction or compaction
		}
		st.evicted.Add(1)
		st.compactedSessions.Add(c.Sessions)
		st.absorbIntoRollup(c)
		n++
	}
	return n
}

// evictColdestLocked demotes this shard's oldest-window cell into its
// rollup to make room for a new cell, called with sh.mu held. Only
// cells in a window strictly older than the incoming key's qualify —
// a same-window cardinality flood finds nothing to evict and is
// dropped (and counted) by the caller instead of churning live cells.
func (st *Store) evictColdestLocked(sh *storeShard, newWindowMS int64) bool {
	if !st.CompactionEnabled() {
		return false
	}
	var victim *Cell
	var vk Key
	for k, c := range sh.cells {
		if k.WindowMS >= newWindowMS {
			continue
		}
		if victim == nil || k.WindowMS < vk.WindowMS ||
			(k.WindowMS == vk.WindowMS && keyLess(k, vk)) {
			victim, vk = c, k
		}
	}
	if victim == nil {
		return false
	}
	delete(sh.cells, vk)
	st.cells.Add(-1)
	st.evicted.Add(1)
	st.compactedSessions.Add(victim.Sessions)
	st.absorbIntoRollup(victim)
	return true
}

// evictColdestGlobal demotes the store's oldest strictly-older-window
// cell across ALL shards, called with no shard lock held. It exists
// because key hashing redistributes every window: under churn a shard
// can receive more new-window cells than it holds old-window victims,
// so shard-local eviction alone strands cold cells in other shards and
// forces drops even though the store as a whole has room to reclaim.
// Shard locks are taken one at a time (never nested), so this cannot
// deadlock against concurrent folds. It reports whether a strictly
// older cell existed — true even when a concurrent compaction or
// eviction removed the victim first, since either way the caller's
// retry may find room; false only when nothing older is left anywhere.
func (st *Store) evictColdestGlobal(newWindowMS int64) bool {
	if !st.CompactionEnabled() {
		return false
	}
	var vk Key
	vs := -1
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k := range sh.cells {
			if k.WindowMS >= newWindowMS {
				continue
			}
			if vs < 0 || k.WindowMS < vk.WindowMS ||
				(k.WindowMS == vk.WindowMS && keyLess(k, vk)) {
				vk, vs = k, i
			}
		}
		sh.mu.Unlock()
	}
	if vs < 0 {
		return false
	}
	sh := &st.shards[vs]
	sh.mu.Lock()
	c, ok := sh.cells[vk]
	if ok {
		delete(sh.cells, vk)
		st.cells.Add(-1)
	}
	sh.mu.Unlock()
	if !ok {
		return true // raced with compaction or another eviction
	}
	st.evicted.Add(1)
	st.compactedSessions.Add(c.Sessions)
	st.absorbIntoRollup(c)
	return true
}

// absorbIntoRollup merges one demoted fine cell into its rollup cell,
// logging the fine key's removal for stream retraction. rollupMu is a
// leaf lock (never taken before a shard lock inside this package), so
// calling this while holding a shard lock is safe.
func (st *Store) absorbIntoRollup(c *Cell) {
	rk := st.rollupKey(c.Key)
	st.rollupMu.Lock()
	dst, ok := st.rollups[rk]
	if !ok {
		dst = newCell(rk)
		dst.SpanMS = st.rollupMS
		st.rollups[rk] = dst
		st.rollupN.Add(1)
	}
	if err := dst.Merge(c); err != nil {
		st.rollupErrors.Add(1)
	}
	dst.Epoch = st.epoch.Add(1)
	st.capRollupsLocked()
	st.rollupMu.Unlock()
	st.logRemoval(c.Key)
}

// capRollupsLocked bounds the rollup tier at MaxCells: past it, the
// coldest non-overflow rollups collapse into the single overflow cell
// (identity and window dropped, totals preserved). Evicts down to
// ~7/8 of the cap in one sorted pass so the scan amortizes instead of
// running per absorbed cell. Called with rollupMu held.
func (st *Store) capRollupsLocked() {
	if st.rollupN.Load() <= st.maxCells {
		return
	}
	target := st.maxCells - st.maxCells/8
	type windowedKey struct {
		w int64
		k Key
	}
	var all []windowedKey
	for k := range st.rollups {
		if k.WindowMS == overflowWindowMS {
			continue
		}
		all = append(all, windowedKey{k.WindowMS, k})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w < all[j].w
		}
		return keyLess(all[i].k, all[j].k)
	})
	ok := Key{Device: OverflowLabel, Group: OverflowLabel, WindowMS: overflowWindowMS}
	for _, e := range all {
		if st.rollupN.Load() <= target {
			break
		}
		c := st.rollups[e.k]
		delete(st.rollups, e.k)
		st.rollupN.Add(-1)
		dst, exists := st.rollups[ok]
		if !exists {
			dst = newCell(ok)
			dst.SpanMS = -1
			st.rollups[ok] = dst
			st.rollupN.Add(1)
		}
		if err := dst.Merge(c); err != nil {
			st.rollupErrors.Add(1)
		}
		dst.Epoch = st.epoch.Add(1)
		st.logRemoval(e.k)
	}
}

// logRemoval records a deleted cell key at a fresh epoch so stream
// subscribers retract the row.
func (st *Store) logRemoval(k Key) { st.removals.Log(st.epoch.Add(1), k) }
