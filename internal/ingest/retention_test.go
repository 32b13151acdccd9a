package ingest

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// foldOne folds a minimal summary with n RTT samples at the given
// event time into the store.
func foldOne(t *testing.T, st *Store, device, group string, timeMS int64, rtts ...int64) {
	t.Helper()
	s := &Summary{Device: device, Group: group, Scenario: "test", TimeMS: timeMS,
		RTTs: rtts, Sent: len(rtts)}
	if !st.Fold(s, 0, SourceNone) {
		t.Fatalf("fold dropped %s@%d", device, timeMS)
	}
}

// TestCompactionWindowBoundary pins Compact's cutoff semantics: a
// window compacts exactly when it has fully closed at the cutoff (start + width <= cutoff) — the window closing *exactly at*
// the cutoff goes, the next one stays.
func TestCompactionWindowBoundary(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(2 * time.Second)
	foldOne(t, st, "a", "g", 0, 1000)    // window [0, 1000) — closed 1000ms before cutoff
	foldOne(t, st, "a", "g", 1000, 1000) // window [1000, 2000) — closes exactly at cutoff
	foldOne(t, st, "a", "g", 2000, 1000) // window [2000, 3000) — still open at cutoff
	cells, sessions := st.Compact(2000)
	if cells != 2 || sessions != 2 {
		t.Fatalf("Compact(2000) = %d cells, %d sessions; want 2, 2", cells, sessions)
	}
	if got := st.Cells(); got != 1 {
		t.Fatalf("%d fine cells survive; want 1 (the open window)", got)
	}
	// Both expired windows share the 2s rollup window starting at 0.
	if got := st.RollupCells(); got != 1 {
		t.Fatalf("%d rollup cells; want 1", got)
	}
	snap := st.Snapshot()
	var roll *Cell
	for _, c := range snap {
		if c.SpanMS == 2000 {
			roll = c
		}
	}
	if roll == nil {
		t.Fatal("no rollup cell in snapshot")
	}
	if roll.Key.WindowMS != 0 || roll.Sessions != 2 {
		t.Fatalf("rollup %+v; want window 0 with 2 sessions", roll.Key)
	}
	if st.Compacted() != 2 || st.CompactedSessions() != 2 {
		t.Fatalf("counters compacted=%d sessions=%d; want 2, 2", st.Compacted(), st.CompactedSessions())
	}
}

// TestCompactionLossless is the merge-law property test: fold a
// synthetic stream into one store and compact everything, fold the
// identical stream into a reference store left alone, and the merged
// group view must agree — session/probe counts and histograms exactly,
// moments to float associativity, sketch quantiles within the
// documented rank-error bound against the true sample.
func TestCompactionLossless(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(5 * time.Second)
	ref := NewStore(time.Second, 4)

	devices := []string{"Nexus 5", "Grand", "Xperia J"}
	byGroup := map[string][]int64{}
	var summaries []*Summary
	for i := 0; i < 200; i++ {
		dev := devices[i%len(devices)]
		rtts := make([]int64, 5)
		for j := range rtts {
			// Deterministic spread: 20–80 ms with a heavy-ish tail.
			rtts[j] = int64(20*time.Millisecond) + int64((i*37+j*11)%60)*int64(time.Millisecond)
		}
		s := &Summary{Device: dev, Group: dev, Scenario: "prop", TimeMS: int64(i * 700),
			RTTs: rtts, Sent: 6, Lost: 1}
		summaries = append(summaries, s)
		byGroup[dev] = append(byGroup[dev], rtts...)
	}
	for _, s := range summaries {
		if !st.Fold(s, 0, SourceNone) || !ref.Fold(s.clone(), 0, SourceNone) {
			t.Fatal("fold dropped")
		}
	}
	// Compact *everything* (cutoff past the last window), in two passes
	// to exercise repeated merges into existing rollups.
	st.Compact(100_000)
	st.Compact(math.MaxInt64)
	if st.Cells() != 0 {
		t.Fatalf("%d fine cells left after full compaction", st.Cells())
	}

	got, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups after compaction, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key {
			t.Fatalf("group %d key %+v vs %+v", i, g.Key, w.Key)
		}
		if g.Sessions != w.Sessions || g.ProbesSent != w.ProbesSent || g.ProbesLost != w.ProbesLost {
			t.Errorf("%s: counts %d/%d/%d vs %d/%d/%d", g.Key.Group,
				g.Sessions, g.ProbesSent, g.ProbesLost, w.Sessions, w.ProbesSent, w.ProbesLost)
		}
		diffs, _ := g.raw().Agree(w.raw())
		for _, d := range diffs {
			t.Errorf("%s: raw track: %s", g.Key.Group, d)
		}
		// Sketch guarantee: the quantile's true rank in the raw sample
		// stays within the merged sketch's documented error bound.
		sample := append([]int64(nil), byGroup[g.Key.Group]...)
		sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := g.RawSketch.Quantile(q)
			bound := g.RawSketch.QuantileErrorBound(q) + 1.0/float64(len(sample))
			// The sample is ms-quantized, so a returned value covers a
			// whole rank *interval* [P(x<v), P(x<=v)]; the error is the
			// distance from q to that interval, not to either endpoint.
			lt, le := 0.0, 0.0
			for _, x := range sample {
				if float64(x) < v {
					lt++
				}
				if float64(x) <= v {
					le++
				}
			}
			n := float64(len(sample))
			lt, le = lt/n, le/n
			diff := 0.0
			if q < lt {
				diff = lt - q
			} else if q > le {
				diff = q - le
			}
			if diff > bound {
				t.Errorf("%s: q%.2f rank error %.4f exceeds bound %.4f", g.Key.Group, q, diff, bound)
			}
		}
	}
}

// clone deep-copies a summary's slices so two stores can fold "the
// same" stream without sharing state.
func (s *Summary) clone() *Summary {
	c := *s
	c.RTTs = append([]int64(nil), s.RTTs...)
	return &c
}

// TestEvictionAtCapIntoRollups: a rotating-key workload at the cell cap
// must evict coldest-window cells into rollups (never dropping counts),
// while a same-window cardinality flood still drops and counts.
func TestEvictionAtCapIntoRollups(t *testing.T) {
	st := NewStore(time.Second, 1) // one shard so eviction always sees the cold cells
	st.SetMaxCells(4)
	st.EnableCompaction(10 * time.Second)
	for i := 0; i < 4; i++ {
		foldOne(t, st, deviceName("w0", i), "g", 0, 1000)
	}
	// New window, new identities: each mint must evict a window-0 cell.
	for i := 0; i < 4; i++ {
		foldOne(t, st, deviceName("w1", i), "g", 1000, 1000)
	}
	if st.Cells() > 4 {
		t.Fatalf("%d fine cells exceed cap 4", st.Cells())
	}
	if st.Evicted() != 4 {
		t.Fatalf("evicted %d cells; want 4", st.Evicted())
	}
	if st.Dropped() != 0 {
		t.Fatalf("%d summaries dropped; eviction should have made room", st.Dropped())
	}
	// Same-window flood: nothing older to evict, so the mint drops.
	s := &Summary{Device: "flood", Group: "g", Scenario: "test", TimeMS: 1000,
		RTTs: []int64{1000}, Sent: 1}
	if st.Fold(s, 0, SourceNone) {
		t.Fatal("same-window mint past the cap was accepted")
	}
	if st.Dropped() != 1 {
		t.Fatalf("dropped = %d; want 1", st.Dropped())
	}
	// Lossless across the merged view: 8 folded sessions all queryable.
	cells, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range cells {
		total += c.Sessions
	}
	if total != 8 {
		t.Fatalf("%d sessions queryable; want 8", total)
	}
}

func deviceName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}

// TestRollupOverflowCollapse: the rollup tier is itself capped — past
// MaxCells the coldest rollups collapse into the identity-free overflow
// cell, still preserving totals.
func TestRollupOverflowCollapse(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.SetMaxCells(4)
	st.EnableCompaction(time.Second) // rollup == fine window: every window its own rollup
	total := int64(0)
	for w := 0; w < 16; w++ {
		foldOne(t, st, "dev", "g", int64(w*1000), 1000)
		total++
		st.Compact(int64((w + 1) * 1000)) // expire the window immediately
	}
	if st.Cells() != 0 {
		t.Fatalf("%d fine cells; want 0", st.Cells())
	}
	if got := st.RollupCells(); got > 4 {
		t.Fatalf("%d rollup cells exceed cap 4", got)
	}
	snap := st.Snapshot()
	var overflow *Cell
	var sum int64
	for _, c := range snap {
		sum += c.Sessions
		if c.Key.Device == OverflowLabel {
			overflow = c
		}
	}
	if overflow == nil {
		t.Fatal("no overflow cell after collapsing 16 rollups into cap 4")
	}
	if overflow.Key.WindowMS != overflowWindowMS || overflow.SpanMS != -1 {
		t.Fatalf("overflow cell geometry %d/%d; want %d/-1", overflow.Key.WindowMS, overflow.SpanMS, overflowWindowMS)
	}
	if sum != total {
		t.Fatalf("%d sessions across tiers; want %d", sum, total)
	}

	// With a live fine cell beside the rollups and the overflow cell,
	// every reader must list the same rows.
	foldOne(t, st, "live", "g", 16*1000, 1000)
	type row struct {
		key  Key
		span int64
	}
	rowsOf := func(cells []*Cell) (rows []row) {
		for _, c := range cells {
			rows = append(rows, row{c.Key, c.SpanMS})
		}
		return rows
	}
	keysOf := func(stats []CellStats) (keys []Key) {
		for _, c := range stats {
			keys = append(keys, c.Key)
		}
		return keys
	}
	want := rowsOf(st.Snapshot())
	spans := map[int64]bool{}
	var wantKeys []Key
	for _, r := range want {
		spans[r.span] = true
		wantKeys = append(wantKeys, r.key)
	}
	if !spans[0] || !spans[1000] || !spans[-1] {
		t.Fatalf("store lacks a fine, rollup or overflow row: %+v", want)
	}
	queried := st.QueryWith(RollupCell, nil)
	stats, err := st.StatsQuery(RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := st.DeltasSince(0, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]row{
		"QueryWith":       rowsOf(queried),
		"CellDeltasSince": rowsOf(st.CellDeltasSince(0).Cells),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows %+v; Snapshot has %+v", name, got, want)
		}
	}
	for name, got := range map[string][]Key{
		"StatsQuery":  keysOf(stats),
		"DeltasSince": keysOf(ev.Cells),
	} {
		if !reflect.DeepEqual(got, wantKeys) {
			t.Errorf("%s keys %+v; Snapshot has %+v", name, got, wantKeys)
		}
	}
}

// TestRollupCollapseKeepsWarmest: one collapse pass leaves exactly the
// warmest rollups a full sort of the tier would keep, and the overflow
// cell holds everything else.
func TestRollupCollapseKeepsWarmest(t *testing.T) {
	const capCells = 64
	st := NewStore(time.Second, 4)
	st.SetMaxCells(capCells)
	st.EnableCompaction(time.Second)
	var all []Key
	for i := 0; i <= capCells; i++ {
		// Many rollups share each window, so keyLess decides most of
		// the order.
		w := int64(i%5) * 1000
		dev := fmt.Sprintf("dev-%03d", (i*37)%101)
		foldOne(t, st, dev, "g", w, 1000)
		all = append(all, Key{Device: dev, Group: "g", Scenario: "test", WindowMS: w})
	}
	st.Compact(10_000) // demote every fine cell; the last absorb collapses the tier
	sort.Slice(all, func(i, j int) bool { return colder(all[i], all[j]) })
	target := capCells - capCells/8
	wantKept := all[len(all)-(target-1):] // target rollups, one of them the overflow cell
	var kept []Key
	var overflow *Cell
	for _, c := range st.Snapshot() {
		if c.Key.WindowMS == overflowWindowMS {
			overflow = c
			continue
		}
		kept = append(kept, c.Key)
	}
	sort.Slice(kept, func(i, j int) bool { return colder(kept[i], kept[j]) })
	if !reflect.DeepEqual(kept, wantKept) {
		t.Fatalf("collapse kept %v\nwant %v", kept, wantKept)
	}
	if overflow == nil || overflow.Sessions != int64(len(all)-len(wantKept)) {
		t.Fatalf("overflow cell %+v; want %d sessions", overflow, len(all)-len(wantKept))
	}
}

// TestEnforceCapSparesOpenWindows: the janitor's global cap pass must
// never demote a window that is still open relative to now.
func TestEnforceCapSparesOpenWindows(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(10 * time.Second)
	// Three cells, then the cap drops below them: one closed window, two
	// open at now=1500. (Cap set after folding so fold-time eviction
	// does not fire first.)
	foldOne(t, st, "old", "g", 0, 1000)
	foldOne(t, st, "live-a", "g", 1000, 1000)
	foldOne(t, st, "live-b", "g", 1000, 1000)
	st.SetMaxCells(2)
	if n := st.EnforceCap(1500); n != 1 {
		t.Fatalf("EnforceCap demoted %d cells; want 1 (only the closed window)", n)
	}
	for _, c := range st.Snapshot() {
		if c.SpanMS == 0 && c.Key.WindowMS == 0 {
			t.Fatal("closed window survived EnforceCap")
		}
		if c.SpanMS != 0 && c.Key.Device != "old" {
			t.Fatalf("open-window cell %s was demoted", c.Key.Device)
		}
	}
}

// TestEnforceCapDemotesColdestInOrder: one EnforceCap pass over shards
// filled past the cap with cells of mixed closed and open windows
// demotes exactly the cells − MaxCells coldest closed-window cells, in
// colder order (read back from the removal log), and nothing else.
// Each device's cells share one rollup, and the cap stays at or above
// the device count, so no rollup collapse logs removals of its own.
func TestEnforceCapDemotesColdestInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const devices, windows, nowMS = 20, 6, 5500 // windows before 5000 are closed
	for trial := 0; trial < 20; trial++ {
		st := NewStore(time.Second, 4)
		st.EnableCompaction(10 * time.Second)
		var keys, closed []Key
		for d := 0; d < devices; d++ {
			dev := fmt.Sprintf("dev-%d", rng.Intn(1_000_000))
			for w := int64(0); w < windows; w++ {
				keys = append(keys, Key{Device: dev, Group: "g", Scenario: "test", WindowMS: w * 1000})
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			foldOne(t, st, k.Device, k.Group, k.WindowMS, 1000)
			if k.WindowMS < 5000 {
				closed = append(closed, k)
			}
		}
		// The cap drops after folding, so fold-time eviction never runs.
		capCells := int64(devices + rng.Intn(len(closed)-devices))
		st.SetMaxCells(capCells)
		want := append([]Key(nil), closed...)
		sort.Slice(want, func(i, j int) bool { return colder(want[i], want[j]) })
		want = want[:st.Cells()-capCells]

		before := st.Epoch()
		n := st.EnforceCap(nowMS)
		got, ok := st.removals.Since(before, st.Epoch())
		if !ok || n != int64(len(want)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: EnforceCap demoted %d cells %v\nwant %d: %v", trial, n, got, len(want), want)
		}
		if st.Cells() != capCells {
			t.Fatalf("trial %d: %d fine cells left, want the cap %d", trial, st.Cells(), capCells)
		}
	}
}

// TestStreamSeesCompaction: a cursor taken before compaction must
// receive both the retraction of the fine cell and the upsert of its
// rollup — the exact contract /v1/stream clients fold by.
func TestStreamSeesCompaction(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(2 * time.Second)
	foldOne(t, st, "a", "g", 0, 1000)
	cursor := st.Epoch()
	st.Compact(math.MaxInt64)
	ev, err := st.DeltasSince(cursor, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reset {
		t.Fatal("unexpected reset: the removal log holds one entry")
	}
	fineKey := Key{Device: "a", Group: "g", Scenario: "test", WindowMS: 0}
	found := false
	for _, k := range ev.Removed {
		if k == fineKey {
			found = true
		}
	}
	if !found {
		t.Fatalf("retraction for %+v missing from %+v", fineKey, ev.Removed)
	}
	if len(ev.Cells) != 1 || ev.Cells[0].Sessions != 1 {
		t.Fatalf("rollup upsert missing: cells %+v", ev.Cells)
	}
	// Applying the event to a client copy must match a fresh snapshot.
	ev2, err := st.DeltasSince(ev.Epoch, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev2.Cells) != 0 || len(ev2.Removed) != 0 {
		t.Fatalf("quiesced store still emits deltas: %+v", ev2)
	}
}

// TestDeltaReplayRetractsRacingRemovals: readers replaying stream and
// gossip deltas in a tight loop, while folds and compaction race them,
// must end with exactly the store's rows. A removal whose epoch landed
// at or below a returned cursor but outside that delta's removal-log
// read would never be delivered, and its row would stay stale. Windows
// aligned with the 10 s rollup are folded too: their fine cells share a
// Key with the rollup they compact into, and since every reader sees
// one cell per Key, a key set still describes each view.
func TestDeltaReplayRetractsRacingRemovals(t *testing.T) {
	apply := func(rows map[Key]bool, reset bool, removed []Key, cells []Key) {
		if reset {
			clear(rows)
		}
		for _, k := range removed {
			delete(rows, k)
		}
		for _, k := range cells {
			rows[k] = true
		}
	}
	streamDelta := func(st *Store, rows map[Key]bool, cursor int64) int64 {
		ev, err := st.DeltasSince(cursor, RollupCell)
		if err != nil {
			t.Error(err)
			return cursor
		}
		keys := make([]Key, len(ev.Cells))
		for i, c := range ev.Cells {
			keys[i] = c.Key
		}
		apply(rows, ev.Reset, ev.Removed, keys)
		return ev.Epoch
	}
	gossipDelta := func(st *Store, rows map[Key]bool, cursor int64) int64 {
		d := st.CellDeltasSince(cursor)
		keys := make([]Key, len(d.Cells))
		for i, c := range d.Cells {
			keys[i] = c.Key
		}
		apply(rows, d.Reset, d.Removed, keys)
		return d.Epoch
	}
	diff := func(got map[Key]bool, want []Key) (stale, missing int) {
		in := map[Key]bool{}
		for _, k := range want {
			in[k] = true
			if !got[k] {
				missing++
			}
		}
		for k := range got {
			if !in[k] {
				stale++
			}
		}
		return stale, missing
	}

	for round := 0; round < 40; round++ {
		st := NewStore(time.Second, 4)
		st.EnableCompaction(10 * time.Second)
		stream, gossip := map[Key]bool{}, map[Key]bool{}
		var streamCursor, gossipCursor int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		replay := func(rows map[Key]bool, cursor *int64,
			delta func(*Store, map[Key]bool, int64) int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				*cursor = delta(st, rows, *cursor)
			}
		}
		wg.Add(2)
		go replay(stream, &streamCursor, streamDelta)
		go replay(gossip, &gossipCursor, gossipDelta)
		for w := int64(1); w < 50; w++ {
			for d := 0; d < 16; d++ {
				s := Summary{Device: fmt.Sprintf("dev-%d", d), Group: "g", TimeMS: w * 1000,
					Sent: 1, RTTs: []int64{int64(time.Millisecond)}}
				if !st.Fold(&s, 0, SourceNone) {
					t.Fatalf("round %d: fold dropped", round)
				}
			}
			st.Compact(w * 1000)
		}
		close(stop)
		wg.Wait()
		// Catch up once now that the store holds still.
		streamDelta(st, stream, streamCursor)
		gossipDelta(st, gossip, gossipCursor)

		stats, err := st.StatsQuery(RollupCell)
		if err != nil {
			t.Fatal(err)
		}
		var statsKeys, snapKeys []Key
		for _, c := range stats {
			statsKeys = append(statsKeys, c.Key)
		}
		for _, c := range st.Snapshot() {
			snapKeys = append(snapKeys, c.Key)
		}
		if stale, missing := diff(stream, statsKeys); stale+missing > 0 {
			t.Fatalf("round %d: stream replay has %d stale and %d missing rows against %d in StatsQuery",
				round, stale, missing, len(statsKeys))
		}
		if stale, missing := diff(gossip, snapKeys); stale+missing > 0 {
			t.Fatalf("round %d: gossip replay has %d stale and %d missing rows against %d in Snapshot",
				round, stale, missing, len(snapKeys))
		}
	}
}

// TestRemovalLogOverflowForcesResync: a cursor older than the bounded
// removal log's floor gets Reset (full snapshot) instead of silently
// missing retractions.
func TestRemovalLogOverflowForcesResync(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(time.Second)
	foldOne(t, st, "first", "g", 0, 1000)
	cursor := st.Epoch()
	st.Compact(2000)
	// Overflow the log with synthetic removals past the cap.
	for i := 0; i < removalLogCap+10; i++ {
		st.logRemoval(Key{Device: "churn", Group: "g", WindowMS: int64(i)})
	}
	ev, err := st.DeltasSince(cursor, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Reset {
		t.Fatal("cursor predating the removal log must force a resync")
	}
	if len(ev.Cells) == 0 {
		t.Fatal("reset event must carry the full snapshot")
	}
}

// TestRemovalLogRingWrap: the removal log is a fixed ring. Through
// three full wraps, every cursor at or above the floor gets exactly the
// keys removed after it, in epoch order, and a cursor below the floor
// is refused so the caller resyncs.
func TestRemovalLogRingWrap(t *testing.T) {
	st := NewStore(time.Second, 4)
	base := st.Epoch()
	logged := 0
	for _, upTo := range []int{1, removalLogCap / 2, removalLogCap, removalLogCap + 1,
		2*removalLogCap + 7, 3 * removalLogCap} {
		for ; logged < upTo; logged++ {
			// Removal i is stamped epoch base+i+1; its key carries i.
			st.logRemoval(Key{Device: "churn", Group: "g", WindowMS: int64(logged)})
		}
		last := base + int64(logged)
		floor := base
		if logged > removalLogCap {
			floor = last - removalLogCap
		}
		for _, cursor := range []int64{floor, floor + 1, (floor + last) / 2, last - 1, last} {
			keys, ok := st.removals.Since(cursor, last)
			if !ok {
				t.Fatalf("%d logged: cursor %d at or above floor %d refused", logged, cursor, floor)
			}
			if want := int(last - cursor); len(keys) != want {
				t.Fatalf("%d logged: cursor %d got %d keys, want %d", logged, cursor, len(keys), want)
			}
			for i, k := range keys {
				if want := cursor - base + int64(i); k.WindowMS != want {
					t.Fatalf("%d logged: cursor %d key %d is removal %d, want %d", logged, cursor, i, k.WindowMS, want)
				}
			}
		}
		if floor > base {
			if _, ok := st.removals.Since(floor-1, last); ok {
				t.Fatalf("%d logged: cursor %d below floor %d not refused", logged, floor-1, floor)
			}
		}
	}
}

// TestCapEvictionRaceNoDrops: fold workers racing to mint new-window
// cells at the cell cap must keep evicting older cells until their mint
// wins — a worker whose freshly evicted slot is taken by a concurrent
// mint evicts again rather than dropping. The store holds as many
// older-window cells as the workers mint, so nothing may drop and every
// folded session stays queryable. Half the workers fold through Fold,
// half through FoldRun.
func TestCapEvictionRaceNoDrops(t *testing.T) {
	const workers, perWorker, rounds = 8, 64, 4
	const capCells = workers * perWorker
	st := NewStore(time.Second, DefaultStoreShards)
	st.SetMaxCells(capCells)
	st.EnableCompaction(time.Hour)
	for i := 0; i < capCells; i++ {
		foldOne(t, st, fmt.Sprintf("seed-%d", i), "g", 0, 1000)
	}
	for r := 1; r <= rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				corrs, srcs := []time.Duration{0}, []CorrectionSource{SourceNone}
				for i := 0; i < perWorker; i++ {
					s := Summary{Device: fmt.Sprintf("r%d-w%d-%d", r, w, i), Group: "g", Scenario: "test",
						TimeMS: int64(r) * 1000, RTTs: []int64{1000}, Sent: 1}
					if w%2 == 0 {
						st.Fold(&s, 0, SourceNone)
					} else {
						k := st.KeyFor(&s)
						st.FoldRun(k, keyHash(k), []Summary{s}, corrs, srcs)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if d := st.Dropped(); d != 0 {
		t.Fatalf("%d summaries dropped at the cap with older cells to evict", d)
	}
	cells, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	var sessions int64
	for _, c := range cells {
		sessions += c.Sessions
	}
	if want := int64(capCells * (rounds + 1)); sessions != want {
		t.Fatalf("%d sessions queryable; want %d", sessions, want)
	}
}

// TestStartRejectsNegativeCompactWindow: retention always compacts, so
// a negative rollup width is a configuration error, not a mode.
func TestStartRejectsNegativeCompactWindow(t *testing.T) {
	s, err := Start(Config{Window: time.Second, CompactWindow: -1})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("negative CompactWindow accepted")
	}
}

// TestRetractionRedeliversAlignedRollup: compacting a fine cell whose
// window is aligned to the rollup width removes a key its rollup still
// holds. A delta that retracts that key must deliver the rollup with
// it, whatever cursor an earlier delta left the reader at; otherwise a
// stream or gossip replica drops the rollup's sessions until the rollup
// next changes.
func TestRetractionRedeliversAlignedRollup(t *testing.T) {
	st := NewStore(time.Minute, 4)
	st.EnableCompaction(10 * time.Minute)
	foldOne(t, st, "d", "g", 600_000, 30)
	before := st.Epoch()
	if cells, _ := st.Compact(math.MaxInt64); cells != 1 {
		t.Fatalf("compacted %d cells, want 1", cells)
	}
	k := Key{Device: "d", Group: "g", Scenario: "test", WindowMS: 600_000}
	for since := before; since < st.Epoch(); since++ {
		ev, err := st.DeltasSince(since, RollupCell)
		if err != nil {
			t.Fatal(err)
		}
		d := st.CellDeltasSince(since)
		var streamed, gossiped []Key
		for _, c := range ev.Cells {
			streamed = append(streamed, c.Key)
		}
		for _, c := range d.Cells {
			gossiped = append(gossiped, c.Key)
		}
		for name, delta := range map[string][2][]Key{
			"DeltasSince":     {ev.Removed, streamed},
			"CellDeltasSince": {d.Removed, gossiped},
		} {
			if slices.Contains(delta[0], k) && !slices.Contains(delta[1], k) {
				t.Errorf("%s(%d) retracts %v without delivering its rollup", name, since, k)
			}
		}
	}
}

// TestTwinDeltaReplayRacingCompaction replays stream and gossip deltas
// while late summaries keep re-minting fine cells in windows aligned to
// the rollup width and compaction keeps demoting them. Once the store
// holds still, each replica must hold exactly the sessions Snapshot
// holds, key by key.
func TestTwinDeltaReplayRacingCompaction(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(time.Second) // every window aligned
	stream, gossip := map[Key]int64{}, map[Key]int64{}
	var streamCursor, gossipCursor int64
	streamDelta := func() {
		ev, err := st.DeltasSince(streamCursor, RollupCell)
		if err != nil {
			t.Error(err)
			return
		}
		if ev.Reset {
			clear(stream)
		}
		for _, k := range ev.Removed {
			delete(stream, k)
		}
		for _, c := range ev.Cells {
			stream[c.Key] = c.Sessions
		}
		streamCursor = ev.Epoch
	}
	gossipDelta := func() {
		d := st.CellDeltasSince(gossipCursor)
		if d.Reset {
			clear(gossip)
		}
		for _, k := range d.Removed {
			delete(gossip, k)
		}
		for _, c := range d.Cells {
			gossip[c.Key] = c.Sessions
		}
		gossipCursor = d.Epoch
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, delta := range []func(){streamDelta, gossipDelta} {
		delta := delta
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				delta()
			}
		}()
	}
	for i := 0; i < 400; i++ {
		foldOne(t, st, fmt.Sprintf("dev-%d", i%4), "g", int64(i%3)*1000, 1000)
		if i%5 == 4 && i < 395 {
			st.Compact(3000)
		}
	}
	close(stop)
	wg.Wait()
	streamDelta()
	gossipDelta()
	want := map[Key]int64{}
	for _, c := range st.Snapshot() {
		want[c.Key] = c.Sessions
	}
	if !reflect.DeepEqual(stream, want) {
		t.Errorf("stream replica %v; store %v", stream, want)
	}
	if !reflect.DeepEqual(gossip, want) {
		t.Errorf("gossip replica %v; store %v", gossip, want)
	}
}

// TestCellRowsMergeRemintedTwin pins one cell per Key for every reader
// on a single node. With a window that is a multiple of the rollup
// width, a late summary re-mints a fine cell under the Key of the
// rollup cell its predecessor was compacted into; /stats and /v1/stream
// at by=cell, Snapshot, Query and the gossip delta must each serve the
// pair as one merged cell, as the clustered path does.
func TestCellRowsMergeRemintedTwin(t *testing.T) {
	st := NewStore(time.Minute, 4)
	st.EnableCompaction(10 * time.Minute)
	foldOne(t, st, "d", "g", 600_000, 30)
	if cells, _ := st.Compact(math.MaxInt64); cells != 1 {
		t.Fatalf("compacted %d cells, want 1", cells)
	}
	compacted := st.Epoch()
	foldOne(t, st, "d", "g", 600_000, 40) // late: re-mints the fine cell
	if st.Cells() != 1 || st.RollupCells() != 1 {
		t.Fatalf("fine=%d rollup=%d, want one of each", st.Cells(), st.RollupCells())
	}
	want := Key{Device: "d", Group: "g", Scenario: "test", WindowMS: 600_000}
	check := func(name string, keys []Key, sessions []int64) {
		t.Helper()
		if len(keys) != 1 || keys[0] != want || sessions[0] != 2 {
			t.Fatalf("%s: keys %v with sessions %v; want one %v with 2 sessions", name, keys, sessions, want)
		}
	}
	checkRows := func(name string, rows []CellStats) {
		t.Helper()
		var keys []Key
		var sessions []int64
		for _, r := range rows {
			keys, sessions = append(keys, r.Key), append(sessions, r.Sessions)
		}
		check(name, keys, sessions)
	}
	checkCells := func(name string, cells []*Cell) {
		t.Helper()
		var keys []Key
		var sessions []int64
		for _, c := range cells {
			keys, sessions = append(keys, c.Key), append(sessions, c.Sessions)
		}
		check(name, keys, sessions)
	}
	stats, err := st.StatsQuery(RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	checkRows("StatsQuery", stats)
	ev, err := st.DeltasSince(0, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	checkRows("DeltasSince(0)", ev.Cells)
	// Only the fine twin changed since the compaction; the row it
	// re-emits still carries the rollup's session.
	ev, err = st.DeltasSince(compacted, RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	checkRows("DeltasSince(compacted)", ev.Cells)
	checkCells("Snapshot", st.Snapshot())
	queried, err := st.Query(RollupCell)
	if err != nil {
		t.Fatal(err)
	}
	checkCells("Query(RollupCell)", queried)
	checkCells("CellDeltasSince(0)", st.CellDeltasSince(0).Cells)
	checkCells("CellDeltasSince(compacted)", st.CellDeltasSince(compacted).Cells)
	// The row equals the merging path's, which a clustered node serves.
	for _, c := range st.QueryWith(RollupCell, []*Cell{newCell(Key{Device: "other"})}) {
		if c.Key == want && !reflect.DeepEqual(StatsFor(c), stats[0]) {
			t.Fatalf("single-node row %+v differs from merged %+v", stats[0], StatsFor(c))
		}
	}
}

// retentionModel replays retention's rules over plain maps of session
// counts and picks every victim by a full colder-order sort of the tier
// as it stands, so a store that keeps its cells in any other order, or
// takes a wrong victim, logs removals the model does not.
type retentionModel struct {
	windowMS, rollupMS, maxCells int64
	fine                         []map[Key]int64 // per store shard
	rollups                      map[Key]int64   // the overflow cell excepted
	overflow                     int64
	hasOverflow                  bool
	dropped                      int64
	removed                      []Key // removals logged, in order

	// How often each kind of victim was taken, so the test can show it
	// exercised every path.
	local, global, capped, compacted, collapsed int
}

func (m *retentionModel) allShards() []int {
	all := make([]int, len(m.fine))
	for i := range all {
		all[i] = i
	}
	return all
}

func (m *retentionModel) cells() (n int64) {
	for _, sh := range m.fine {
		n += int64(len(sh))
	}
	return n
}

// coldest returns the coldest fine cell of the given shards whose
// window starts before beforeMS, by sorting all of them.
func (m *retentionModel) coldest(shards []int, beforeMS int64) (k Key, shard int, ok bool) {
	type entry struct {
		k     Key
		shard int
	}
	var all []entry
	for _, i := range shards {
		for k := range m.fine[i] {
			if k.WindowMS < beforeMS {
				all = append(all, entry{k, i})
			}
		}
	}
	if len(all) == 0 {
		return Key{}, 0, false
	}
	sort.Slice(all, func(i, j int) bool { return colder(all[i].k, all[j].k) })
	return all[0].k, all[0].shard, true
}

func (m *retentionModel) demote(shard int, k Key) {
	s := m.fine[shard][k]
	delete(m.fine[shard], k)
	m.removed = append(m.removed, k)
	m.rollups[Key{Device: k.Device, Group: k.Group, Scenario: k.Scenario, WindowMS: k.WindowMS - k.WindowMS%m.rollupMS}] += s
	n := int64(len(m.rollups))
	if m.hasOverflow {
		n++
	}
	if n <= m.maxCells {
		return
	}
	keys := make([]Key, 0, len(m.rollups))
	for rk := range m.rollups {
		keys = append(keys, rk)
	}
	sort.Slice(keys, func(i, j int) bool { return colder(keys[i], keys[j]) })
	for _, rk := range keys {
		if n <= m.maxCells-m.maxCells/8 {
			break
		}
		m.overflow += m.rollups[rk]
		delete(m.rollups, rk)
		m.removed = append(m.removed, rk)
		m.collapsed++
		if !m.hasOverflow {
			m.hasOverflow = true
			n++
		}
		n--
	}
}

func (m *retentionModel) fold(k Key, shard int) bool {
	for {
		if _, ok := m.fine[shard][k]; ok {
			m.fine[shard][k]++
			return true
		}
		if m.cells() >= m.maxCells {
			if v, _, ok := m.coldest([]int{shard}, k.WindowMS); ok {
				m.local++
				m.demote(shard, v)
			} else if v, vs, ok := m.coldest(m.allShards(), k.WindowMS); ok {
				m.global++
				m.demote(vs, v)
				continue
			} else {
				m.dropped++
				return false
			}
		}
		m.fine[shard][k] = 1
		return true
	}
}

func (m *retentionModel) compact(cutoffMS int64) (cells, sessions int64) {
	for i, sh := range m.fine {
		var expired []Key
		for k, s := range sh {
			if k.WindowMS+m.windowMS <= cutoffMS {
				expired = append(expired, k)
				sessions += s
			}
		}
		sort.Slice(expired, func(a, b int) bool { return colder(expired[a], expired[b]) })
		for _, k := range expired {
			m.compacted++
			m.demote(i, k)
		}
		cells += int64(len(expired))
	}
	return cells, sessions
}

func (m *retentionModel) enforceCap(openMS int64) (n int64) {
	for m.cells() > m.maxCells {
		v, vs, ok := m.coldest(m.allShards(), openMS)
		if !ok {
			break
		}
		m.capped++
		m.demote(vs, v)
		n++
	}
	return n
}

// TestRetentionVictimsMatchSort is the differential test of retention's
// victim choice. On one goroutine, each seed runs random folds (new
// keys, repeated keys, and late windows older than the last cutoff),
// Compact passes and EnforceCap passes against retentionModel. Every
// removal the store logs — fold-time eviction, shard-local and global,
// EnforceCap, Compact and rollup collapse — must be the model's, in the
// same order; both tiers must hold the model's cells and sessions; and
// sessions are conserved: folded = fine + rollup + overflow + dropped.
func TestRetentionVictimsMatchSort(t *testing.T) {
	const shards, windowMS, ops = 4, 1000, 2000
	var total retentionModel
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rollup := []time.Duration{time.Second, 3 * time.Second, 10 * time.Second}[rng.Intn(3)]
		capCells := int64(8 + rng.Intn(57))
		st := NewStore(windowMS*time.Millisecond, shards)
		st.SetMaxCells(capCells)
		st.EnableCompaction(rollup)
		m := &retentionModel{windowMS: windowMS, rollupMS: rollup.Milliseconds(), maxCells: capCells,
			fine: make([]map[Key]int64, shards), rollups: map[Key]int64{}}
		for i := range m.fine {
			m.fine[i] = map[Key]int64{}
		}
		devices := int(3 * capCells)
		var folded int64
		now, cutoffW := int64(20), int64(0) // window indices
		for op := 0; op < ops; op++ {
			before := st.Epoch()
			m.removed = m.removed[:0]
			var what string
			switch r := rng.Intn(100); {
			case r < 70:
				w := now - int64(rng.Intn(3))
				if rng.Intn(8) == 0 {
					w = int64(rng.Intn(int(cutoffW) + 1)) // late: at or before the last cutoff
				}
				s := Summary{Device: fmt.Sprintf("dev-%d", rng.Intn(devices)), Group: fmt.Sprintf("g%d", rng.Intn(3)),
					Scenario: "test", TimeMS: w*windowMS + int64(rng.Intn(windowMS)), RTTs: []int64{1000}, Sent: 1}
				k := st.KeyFor(&s)
				what = fmt.Sprintf("fold %+v", k)
				folded++
				got, want := st.Fold(&s, 0, SourceNone), m.fold(k, int(keyHash(k)%shards))
				if got != want {
					t.Fatalf("seed %d op %d: %s accepted=%v, model %v", seed, op, what, got, want)
				}
			case r < 80:
				now++
			case r < 90:
				cutoffW = now - int64(rng.Intn(4))
				what = fmt.Sprintf("Compact(%d)", cutoffW*windowMS)
				gc, gs := st.Compact(cutoffW * windowMS)
				wc, ws := m.compact(cutoffW * windowMS)
				if gc != wc || gs != ws {
					t.Fatalf("seed %d op %d: %s = %d cells, %d sessions; model %d, %d", seed, op, what, gc, gs, wc, ws)
				}
			default:
				// A cap below the resident count, as a racing mint can
				// leave the tier, for one pass.
				lowered := capCells/2 + rng.Int63n(capCells/2+1)
				nowMS := now*windowMS + int64(rng.Intn(windowMS))
				what = fmt.Sprintf("EnforceCap(%d) at cap %d", nowMS, lowered)
				st.SetMaxCells(lowered)
				m.maxCells = lowered
				got := st.EnforceCap(nowMS)
				want := m.enforceCap(now * windowMS)
				st.SetMaxCells(capCells)
				m.maxCells = capCells
				if got != want {
					t.Fatalf("seed %d op %d: %s demoted %d cells; model %d", seed, op, what, got, want)
				}
			}
			removed, ok := st.removals.Since(before, st.Epoch())
			if !ok || !slices.Equal(removed, m.removed) {
				t.Fatalf("seed %d op %d: %s removed %v\nfull sort removes %v", seed, op, what, removed, m.removed)
			}

			var fine, rolled, overflow int64
			for i := range st.shards {
				got := map[Key]int64{}
				for k, c := range st.shards[i].cells {
					got[k] = c.Sessions
					fine += c.Sessions
				}
				if !maps.Equal(got, m.fine[i]) {
					t.Fatalf("seed %d op %d: after %s shard %d holds %v; model %v", seed, op, what, i, got, m.fine[i])
				}
			}
			got := map[Key]int64{}
			for k, c := range st.rollups {
				if k.WindowMS == overflowWindowMS {
					overflow += c.Sessions
					continue
				}
				got[k] = c.Sessions
				rolled += c.Sessions
			}
			if !maps.Equal(got, m.rollups) || overflow != m.overflow {
				t.Fatalf("seed %d op %d: after %s rollups %v + overflow %d; model %v + %d",
					seed, op, what, got, overflow, m.rollups, m.overflow)
			}
			if sum := fine + rolled + overflow + st.Dropped(); sum != folded || st.Dropped() != m.dropped {
				t.Fatalf("seed %d op %d: after %s folded %d sessions, stored %d fine + %d rollup + %d overflow + %d dropped",
					seed, op, what, folded, fine, rolled, overflow, st.Dropped())
			}
		}
		total.local += m.local
		total.global += m.global
		total.capped += m.capped
		total.compacted += m.compacted
		total.collapsed += m.collapsed
	}
	if total.local == 0 || total.global == 0 || total.capped == 0 || total.compacted == 0 || total.collapsed == 0 {
		t.Fatalf("victims by path: local %d, global %d, EnforceCap %d, Compact %d, collapse %d; want every path taken",
			total.local, total.global, total.capped, total.compacted, total.collapsed)
	}
	t.Logf("victims by path: local %d, global %d, EnforceCap %d, Compact %d, collapse %d",
		total.local, total.global, total.capped, total.compacted, total.collapsed)
}
