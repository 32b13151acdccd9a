package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/ingest"
)

// TestRecycledCellGossipEncoding: the ingest store recycles the cells
// retention demotes. A fine cell and a rollup minted from recycled
// cells must gossip byte-identically to ones minted new, so replicas
// cannot tell them apart.
func TestRecycledCellGossipEncoding(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	sketchOf := func(vs ...int64) *agg.Sketch {
		sk := agg.NewSketch(0)
		for _, v := range vs {
			sk.Add(float64(v))
		}
		sk.Flush()
		return sk
	}
	newStore := func() *ingest.Store {
		st := ingest.NewStore(time.Second, 1)
		st.EnableCompaction(2 * time.Second)
		return st
	}
	foldAll := func(st *ingest.Store, sums []ingest.Summary) {
		for i := range sums {
			if !st.Fold(&sums[i], 2*time.Millisecond, ingest.SourceLearned) {
				t.Fatalf("fold dropped %s", sums[i].Device)
			}
		}
	}
	// S: what the compared cells fold, in window 5 s.
	S := []ingest.Summary{
		{Device: "y", TimeMS: 5000, Sent: 3, RTTs: []int64{ms(31), ms(29), ms(650)}},
		{Device: "y", TimeMS: 5000, Sent: 4, Sketch: sketchOf(ms(20), ms(25), ms(90), ms(3000))},
		{Device: "y", TimeMS: 5000, Sent: 1, RTTs: []int64{ms(22)}, LayersOK: true, UserOverheadNS: 5},
	}

	recycled := newStore()
	// Two dirty fine cells of one identity, in two windows of one
	// rollup: demoting both mints one rollup and recycles both cells.
	for _, at := range []int64{10, 1010} {
		foldAll(recycled, []ingest.Summary{
			{Device: "x", TimeMS: at, Sent: 4, Lost: 1, RTTs: []int64{-5, 0, ms(499.9), ms(2000)}, PSMActive: true},
			{Device: "x", TimeMS: at, Sent: 5, Sketch: sketchOf(ms(1), ms(7), ms(300), ms(800), ms(4000))},
		})
	}
	recycled.Compact(2000)
	fresh := newStore()
	for _, st := range []*ingest.Store{recycled, fresh} {
		foldAll(st, S)
	}
	compare := func(what string, span int64) {
		t.Helper()
		find := func(st *ingest.Store) *ingest.Cell {
			for _, c := range st.Snapshot() {
				if c.Key.Device == "y" && c.SpanMS == span {
					return c
				}
			}
			t.Fatalf("%s: no cell for y", what)
			return nil
		}
		got, err := ingest.AppendCell(nil, find(recycled))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ingest.AppendCell(nil, find(fresh))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: gossip encoding of a recycled cell differs from a new one's", what)
		}
	}
	compare("fine cell", 0)

	// Demote y: the recycled store mints its rollup from the second
	// recycled cell, the fresh store from a new one.
	for _, st := range []*ingest.Store{recycled, fresh} {
		st.Compact(6000)
	}
	compare("rollup", 2000)
}
