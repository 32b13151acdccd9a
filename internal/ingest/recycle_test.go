package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
)

// deadCell builds a cell whose previous life left every aggregate
// dirty: histogram mass under and over range and at both ends of the
// bin array, sketches with a coarser compression and merges pending,
// nonzero moments and counters, a rollup span and an epoch.
func deadCell(st *Store) *Cell {
	c := st.mintCell(Key{Device: "old", Group: "old", WindowMS: 7000})
	var fs foldScratch
	c.fold(&Summary{Device: "old", Sent: 5, Lost: 1, BackgroundSent: 2,
		RTTs:      []int64{-5, 0, int64(499 * time.Millisecond), int64(2 * time.Second), 1234567},
		Inflation: 1.5, LayersOK: true, UserOverheadNS: 7, SDIOOverheadNS: 8, PSMInflationNS: 9,
		PSMActive: true, Calibrated: true}, 3*time.Millisecond, SourceLearned, &fs)
	coarse := agg.NewSketch(agg.MinSketchCompression)
	for i := 0; i < 40; i++ {
		coarse.Add(float64(int64(i) * int64(time.Millisecond)))
	}
	c.fold(&Summary{Device: "old", Sent: 40, Sketch: coarse}, time.Millisecond, SourceFamily, &fs)
	// Flushed sketches on both sides, the smaller merged into the larger,
	// leave a merge pending in each of c's sketches.
	other := newCell(Key{Device: "other"})
	other.fold(&Summary{Device: "other", Sent: 2, RTTs: []int64{int64(30 * time.Millisecond), int64(31 * time.Millisecond)}}, 0, SourceNone, &fs)
	for _, sk := range []*agg.Sketch{c.RawSketch, c.PuncturedSketch, other.RawSketch, other.PuncturedSketch} {
		sk.Flush()
	}
	c.Merge(other)
	c.SpanMS = 9000
	c.Epoch = 99
	return c
}

// TestRecycledCellEncodesLikeNew is the recycling contract: a cell
// minted from a dead one and folded with summaries S encodes
// byte-identically to newCell folded with S.
func TestRecycledCellEncodesLikeNew(t *testing.T) {
	cases := map[string][]Summary{
		"raw-rtts": {
			{Device: "d", Sent: 3, RTTs: []int64{int64(31 * time.Millisecond), int64(29 * time.Millisecond), int64(600 * time.Millisecond)}},
			{Device: "d", Sent: 2, Lost: 1, RTTs: []int64{int64(40 * time.Millisecond)}, LayersOK: true, UserOverheadNS: 3},
		},
		"device-sketch": {
			{Device: "d", Sent: 4, Sketch: aggSketchOf(int64(20*time.Millisecond), int64(25*time.Millisecond), int64(90*time.Millisecond), int64(3*time.Second))},
			{Device: "d", Sent: 1, RTTs: []int64{int64(22 * time.Millisecond)}},
		},
	}
	corrs := []time.Duration{2 * time.Millisecond, 0}
	srcs := []CorrectionSource{SourceReported, SourceNone}
	for name, sums := range cases {
		t.Run(name, func(t *testing.T) {
			st := NewStore(time.Second, 1)
			dead := deadCell(st)
			st.recycle(dead)
			k := Key{Device: "d", Group: "d", WindowMS: 1000}
			recycled := st.mintCell(k)
			if recycled != dead {
				t.Fatal("mint did not reuse the free cell")
			}
			fresh := newCell(k)
			var fs foldScratch
			for i := range sums {
				recycled.fold(&sums[i], corrs[i], srcs[i], &fs)
				fresh.fold(&sums[i], corrs[i], srcs[i], &fs)
			}
			got, err := json.Marshal(recycled)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recycled cell JSON differs from a new cell's:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestStoreRecyclingIsInvisible drives the store's own recycle paths —
// cap eviction into per-identity rollups and rollup-cap collapse into
// the overflow cell — on two stores fed the same schedule, one with its
// free list pre-seeded with dirty dead cells. Every snapshot must match
// byte for byte.
func TestStoreRecyclingIsInvisible(t *testing.T) {
	clean := NewStore(time.Second, 4)
	dirty := NewStore(time.Second, 4)
	for _, st := range []*Store{clean, dirty} {
		st.SetMaxCells(6)
		st.EnableCompaction(time.Second)
	}
	for i := 0; i < maxFreeCells; i++ {
		dirty.recycle(deadCell(dirty))
	}
	rng := rand.New(rand.NewSource(61))
	for w := int64(0); w < 12; w++ {
		for i := 0; i < 6; i++ {
			s := Summary{Device: fmt.Sprintf("dev-%d", rng.Intn(9)), Group: "g", Scenario: "s",
				TimeMS: w*1000 + int64(rng.Intn(1000)), Sent: 2,
				RTTs: []int64{int64(rng.Intn(900)) * int64(time.Millisecond), int64(rng.Intn(40)) * int64(time.Millisecond)}}
			if i == 0 {
				s.RTTs, s.Sketch = nil, aggSketchOf(int64(10*time.Millisecond), int64(rng.Intn(2000))*int64(time.Millisecond))
			}
			for _, st := range []*Store{clean, dirty} {
				k := st.KeyFor(&s)
				st.FoldRun(k, keyHash(k), []Summary{s}, []time.Duration{time.Millisecond}, []CorrectionSource{SourceGlobal})
			}
		}
		if w%3 == 2 {
			clean.Compact(w * 1000)
			dirty.Compact(w * 1000)
		}
	}
	if clean.Evicted() == 0 || clean.RollupCells() == 0 {
		t.Fatalf("schedule never evicted (evicted=%d rollups=%d)", clean.Evicted(), clean.RollupCells())
	}
	if !bytes.Equal(snapshotJSON(t, clean), snapshotJSON(t, dirty)) {
		t.Fatal("a store minting from dirty recycled cells diverged from a clean one")
	}
	var overflow bool
	for _, c := range clean.Snapshot() {
		overflow = overflow || c.Key.Device == OverflowLabel
	}
	if !overflow {
		t.Fatal("schedule never collapsed rollups into the overflow cell")
	}
}

// TestRecycleRaceStress runs fold workers minting at the cap alongside
// the janitor's passes and the query and stream readers, so recycled
// cells change hands between goroutines under the race detector. Every
// folded session must stay queryable.
func TestRecycleRaceStress(t *testing.T) {
	const workers, perWorker, capCells = 4, 400, 32
	st := NewStore(time.Second, 8)
	st.SetMaxCells(capCells)
	st.EnableCompaction(time.Second)
	var folded atomic.Int64
	var head atomic.Int64 // newest window index any worker has reached
	var fold sync.WaitGroup
	for w := 0; w < workers; w++ {
		fold.Add(1)
		go func(w int) {
			defer fold.Done()
			corrs, srcs := []time.Duration{0, 0}, []CorrectionSource{SourceNone, SourceNone}
			for i := 0; i < perWorker; i++ {
				win := int64(i / 16)
				if win > head.Load() {
					head.Store(win)
				}
				s := Summary{Device: fmt.Sprintf("w%d-%d", w, i), Group: fmt.Sprintf("g%d", i%3),
					TimeMS: win*1000 + int64(w), Sent: 2, RTTs: []int64{int64(i+1) * 1000, 5000}}
				k := st.KeyFor(&s)
				folded.Add(int64(st.FoldRun(k, keyHash(k), []Summary{s, s}, corrs, srcs)))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { st.Compact((head.Load() - 2) * 1000) },
		func() { st.EnforceCap((head.Load() + 1) * 1000) },
		func() { st.QueryWith(RollupGroup, nil) },
		func() { st.deltasWith(0, RollupGroup, nil) },
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	fold.Wait()
	close(stop)
	readers.Wait()

	cells, err := st.Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	var sessions int64
	for _, c := range cells {
		sessions += c.Sessions
	}
	if sessions != folded.Load() {
		t.Fatalf("%d sessions queryable; %d folded", sessions, folded.Load())
	}
}
