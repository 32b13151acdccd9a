package ingest

import (
	"context"
	"fmt"
	"math"
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
		if g.Raw.N != w.Raw.N || math.Abs(g.Raw.Mean-w.Raw.Mean) > 1e-6*math.Abs(w.Raw.Mean) {
			t.Errorf("%s: raw moments n=%d mean=%g vs n=%d mean=%g", g.Key.Group,
				g.Raw.N, g.Raw.Mean, w.Raw.N, w.Raw.Mean)
		}
		for b := range g.RawHist.Counts {
			if g.RawHist.Counts[b] != w.RawHist.Counts[b] {
				t.Fatalf("%s: histogram bucket %d diverged: %d vs %d", g.Key.Group,
					b, g.RawHist.Counts[b], w.RawHist.Counts[b])
			}
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
	if st.RollupErrors() != 0 {
		t.Fatalf("%d rollup merge errors", st.RollupErrors())
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
			keys, ok := st.removals.Since(cursor)
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
			if _, ok := st.removals.Since(floor - 1); ok {
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
				var fs foldScratch
				corrs, srcs := []time.Duration{0}, []CorrectionSource{SourceNone}
				for i := 0; i < perWorker; i++ {
					s := Summary{Device: fmt.Sprintf("r%d-w%d-%d", r, w, i), Group: "g", Scenario: "test",
						TimeMS: int64(r) * 1000, RTTs: []int64{1000}, Sent: 1}
					if w%2 == 0 {
						st.Fold(&s, 0, SourceNone)
					} else {
						k := st.KeyFor(&s)
						st.FoldRun(k, keyHash(k), []Summary{s}, corrs, srcs, &fs)
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
