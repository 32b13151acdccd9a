package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// foldRunStores builds the matched pair of stores the equivalence
// tests diff: same window, same shard count, same cap, compaction on
// with rollup width == window width. The one-window rollup makes every
// retention pass deterministic — each fine cell demotes into its own
// rollup cell, so map-iteration order inside Compact can never reorder
// merges into a shared target.
func foldRunStores(maxCells int64) (ref, batch *Store) {
	ref = NewStore(time.Second, 4)
	batch = NewStore(time.Second, 4)
	for _, st := range []*Store{ref, batch} {
		st.EnableCompaction(time.Second)
		st.SetMaxCells(maxCells)
	}
	return ref, batch
}

func snapshotJSON(t *testing.T, st *Store) []byte {
	t.Helper()
	b, err := json.Marshal(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldRunSerialEquivalenceUnderRetention is the tentpole's
// correctness contract at the store layer: a FoldRun per contiguous
// same-cell run must leave the store byte-identical to per-summary
// Fold of the same stream — with cap-eviction firing mid-run and
// compaction passes interleaved between runs. The schedule is seeded
// and deliberately hostile: more same-window identities than the cell
// cap (so mints hit the drop path in both stores), runs landing in
// already-compacted windows (re-mints after demotion), and retention
// ops at random points.
func TestFoldRunSerialEquivalenceUnderRetention(t *testing.T) {
	ref, batch := foldRunStores(6)
	punc := NewPuncturerStore(nil)
	var fs foldScratch

	rng := rand.New(rand.NewSource(7))
	devices := []string{"Google Nexus 5", "Samsung Grand", "HTC One", "Sony Xperia J"}
	groups := []string{"g0", "g1"}
	cur := int64(0) // current window index; windows are 1 s wide

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(12); {
		case op == 9:
			// Compact everything at least two windows behind the head —
			// the same cutoff on both stores, between runs (the janitor
			// never runs mid-FoldRun either; both hold the stripe lock).
			cutoff := (cur - 2) * 1000
			ref.Compact(cutoff)
			batch.Compact(cutoff)
		case op == 10:
			now := cur*1000 + 999
			ref.EnforceCap(now)
			batch.EnforceCap(now)
		case op == 11:
			cur++
		default:
			w := cur
			if cur > 0 && rng.Intn(4) == 0 {
				w = cur - 1 // stale summary: an already-cold window
			}
			n := 1 + rng.Intn(12)
			run := make([]Summary, n)
			ts := w*1000 + int64(rng.Intn(1000))
			for i := range run {
				run[i] = Summary{
					Device: devices[rng.Intn(len(devices))],
					Group:  groups[rng.Intn(len(groups))],
					TimeMS: ts,
					Sent:   2,
					Lost:   rng.Intn(2),
					RTTs: []int64{
						int64(20+rng.Intn(30)) * int64(time.Millisecond),
						int64(25+rng.Intn(40)) * int64(time.Millisecond),
					},
				}
				// A run is same-cell by construction.
				run[i].Device = run[0].Device
				run[i].Group = run[0].Group
			}
			corrs := make([]time.Duration, n)
			srcs := make([]CorrectionSource, n)
			for i := range run {
				corrs[i], srcs[i] = punc.Correction(&run[i])
			}
			for i := range run {
				ref.Fold(&run[i], corrs[i], srcs[i])
			}
			k := batch.KeyFor(&run[0])
			batch.FoldRun(k, keyHash(k), run, corrs, srcs, &fs)
		}
		if step%150 == 149 {
			if got, want := snapshotJSON(t, batch), snapshotJSON(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("step %d: batched store diverged from serial fold:\n got %s\nwant %s", step, got, want)
			}
		}
	}
	if got, want := snapshotJSON(t, batch), snapshotJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("batched store diverged from serial fold:\n got %s\nwant %s", got, want)
	}
	if got, want := batch.Dropped(), ref.Dropped(); got != want {
		t.Fatalf("dropped counters diverged: batched %d, serial %d", got, want)
	}
	if batch.Dropped() == 0 {
		t.Fatal("schedule never hit the cap-drop path; the test lost its teeth")
	}
	if batch.Compacted()+batch.Evicted() == 0 {
		t.Fatal("schedule never compacted or evicted; the test lost its teeth")
	}
}

// TestPipelineShuffledBatchEquivalence extends the sharding-equivalence
// contract across the dimensions the tentpole perturbed: the same
// summary stream split into randomly sized batches, run through 1, 2,
// 3, and 8 pipes, with a mid-stream compaction pass demoting every
// fine cell to the rollup tier — the store must come out byte-identical
// to a serial per-summary fold every time. Summaries share one event
// window so compaction targets are distinct rollup cells (merge order
// cannot matter) and carry no attribution (LayersOK=false) so the
// correction path stays read-only and order-independent across pipes.
func TestPipelineShuffledBatchEquivalence(t *testing.T) {
	nowMS := time.Now().UnixMilli()
	window := nowMS - nowMS%1000
	devices := []string{"Google Nexus 5", "Samsung Grand", "HTC One", "Sony Xperia J", "LG G2"}
	stream := make([]Summary, 600)
	for i := range stream {
		stream[i] = Summary{
			Device:   devices[i%len(devices)],
			Scenario: []string{"idle", "bulk"}[(i/11)%2],
			Group:    fmt.Sprintf("g%d", i%3),
			TimeMS:   nowMS,
			Sent:     3,
			Lost:     i % 2,
			RTTs: []int64{
				int64(20+i%25) * int64(time.Millisecond),
				int64(30+i%17) * int64(time.Millisecond),
			},
		}
	}
	half := len(stream) / 2

	for _, pipes := range []int{1, 2, 3, 8} {
		pipes := pipes
		t.Run(fmt.Sprintf("pipes=%d", pipes), func(t *testing.T) {
			s := startTestServer(t, Config{
				Window: time.Second, CompactWindow: time.Second,
				FoldWorkers: pipes, QueueDepth: 4,
			})
			ref := NewStore(time.Second, 1)
			ref.EnableCompaction(time.Second)
			refPunc := NewPuncturerStore(nil)
			foldSerial := func(sums []Summary) {
				for i := range sums {
					corr, src := refPunc.Correction(&sums[i])
					ref.Fold(&sums[i], corr, src)
				}
			}
			rng := rand.New(rand.NewSource(int64(pipes)))
			post := func(sums []Summary) {
				for len(sums) > 0 {
					n := 1 + rng.Intn(40)
					if n > len(sums) {
						n = len(sums)
					}
					clone := make([]Summary, n)
					copy(clone, sums[:n])
					for !s.enqueue(clone) {
						time.Sleep(time.Millisecond)
					}
					sums = sums[n:]
				}
			}

			foldSerial(stream[:half])
			post(stream[:half])
			waitFolded(t, s, int64(half))

			// Mid-stream retention: demote every fine cell, then keep
			// folding — the pipes must re-mint the demoted cells.
			cutoff := window + 1000
			ref.Compact(cutoff)
			s.Store().Compact(cutoff)

			foldSerial(stream[half:])
			post(stream[half:])
			waitFolded(t, s, int64(len(stream)))

			if got, want := snapshotJSON(t, s.Store()), snapshotJSON(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("pipelined store diverged from serial fold:\n got %s\nwant %s", got, want)
			}
			if s.Store().RollupCells() == 0 {
				t.Fatal("mid-stream compaction produced no rollups; the test lost its teeth")
			}
		})
	}
}

// TestFoldRunConservesSessionsAcrossRetention churns windows through
// every retention path — Compact, EnforceCap, and fold-time cap
// eviction — while one worker keeps folding through FoldRun. Every
// folded session must stay queryable: a fold that landed in a cell
// already demoted out of the shard map would vanish, and the
// conservation checks here would come up short.
func TestFoldRunConservesSessionsAcrossRetention(t *testing.T) {
	st := NewStore(time.Second, 4)
	st.EnableCompaction(time.Second)
	punc := NewPuncturerStore(nil)
	var fs foldScratch

	var folded int64
	fold := func(dev string, w int64, n int) {
		run := make([]Summary, n)
		for i := range run {
			run[i] = Summary{
				Device: dev, TimeMS: w * 1000, Sent: 1,
				RTTs: []int64{int64(30+i) * int64(time.Millisecond)},
			}
		}
		corrs := make([]time.Duration, n)
		srcs := make([]CorrectionSource, n)
		for i := range run {
			corrs[i], srcs[i] = punc.Correction(&run[i])
		}
		k := st.KeyFor(&run[0])
		folded += int64(st.FoldRun(k, keyHash(k), run, corrs, srcs, &fs))
	}
	sessions := func() int64 {
		var total int64
		for _, c := range st.Snapshot() {
			total += c.Sessions
		}
		return total
	}
	devices := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	// Rounds of fold → compact → refold into the compacted window. Every
	// refold hits a key whose fine cell a Compact just demoted.
	for w := int64(0); w < 6; w++ {
		for _, d := range devices {
			fold(d, w, 3)
		}
		if n, _ := st.Compact((w + 1) * 1000); n == 0 {
			t.Fatal("compaction demoted nothing; the test lost its teeth")
		}
		for _, d := range devices {
			fold(d, w, 2) // re-mint the cell Compact just demoted
		}
		if got := sessions(); got != folded {
			t.Fatalf("window %d: %d sessions queryable, %d folded", w, got, folded)
		}
	}

	// Cap pressure: shrink the cap so both EnforceCap and fold-time
	// eviction demote cells between folds.
	st.SetMaxCells(4)
	st.EnforceCap(6 * 1000)
	for _, d := range devices {
		fold(d, 6, 1) // mints at the cap: fold-time eviction fires
	}
	for _, d := range devices {
		fold(d, 6, 2) // refolds into cells eviction may have demoted
	}
	if got := sessions(); got != folded {
		t.Fatalf("after cap churn: %d sessions queryable, %d folded", got, folded)
	}
	if st.Evicted() == 0 {
		t.Fatal("cap churn never evicted; the test lost its teeth")
	}
}
