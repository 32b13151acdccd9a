package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// smallCellSketches splits sample into sketches of 1–5 observations
// each — the shape of an ingest cell holding one session's RTTs. Half
// are flushed, as a per-cell stats read leaves them; the rest keep
// their observations buffered.
func smallCellSketches(rng *rand.Rand, sample []float64) []*Sketch {
	var parts []*Sketch
	for len(sample) > 0 {
		n := min(1+rng.Intn(5), len(sample))
		p := NewSketch(0)
		p.AddMulti(sample[:n])
		if len(parts)%2 == 0 {
			p.Flush()
		}
		parts = append(parts, p)
		sample = sample[n:]
	}
	return parts
}

// TestSketchMergeSmallCellsProperty is the /stats?by=group shape: many
// tiny cell sketches merged in shuffled order into one accumulator must
// answer every quantile within the documented bound, and the
// accumulator must stay Valid while merges are pending.
func TestSketchMergeSmallCellsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(30000)
		sample := heavyTailSample(rng, n)
		if trial%2 == 1 {
			for i := range sample {
				sample[i] = math.Exp(rng.NormFloat64()*1.2+3.2) * float64(time.Millisecond)
			}
		}
		parts := smallCellSketches(rng, sample)
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

		acc := NewSketch(0)
		for i, p := range parts {
			acc.Merge(p)
			if i%97 == 0 {
				if err := acc.Valid(); err != nil {
					t.Fatalf("trial %d: accumulator invalid after %d merges: %v", trial, i+1, err)
				}
			}
		}
		if err := acc.Valid(); err != nil {
			t.Fatalf("trial %d: accumulator invalid with %d merges pending: %v", trial, len(acc.pend), err)
		}
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		if acc.Count != int64(n) || acc.MinV != sorted[0] || acc.MaxV != sorted[n-1] {
			t.Fatalf("trial %d: totals count=%d min=%v max=%v", trial, acc.Count, acc.MinV, acc.MaxV)
		}
		for _, q := range sketchTestQs {
			assertQuantileWithinBound(t, "small-cells", acc, sorted, q)
		}
		if len(acc.Centroids) > maxCentroids(acc.Compression) {
			t.Fatalf("trial %d: %d centroids past cap", trial, len(acc.Centroids))
		}
	}
}

// pendingPair builds two accumulators from the same merge sequence,
// leaving both with merges pending: one for the reader under test, one
// flushed explicitly as the reference.
func pendingPair(t *testing.T) (pending, flushed *Sketch) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	base := heavyTailSample(rng, 3000)
	parts := smallCellSketches(rng, heavyTailSample(rng, 60))
	pending, flushed = NewSketch(0), NewSketch(0)
	for _, s := range []*Sketch{pending, flushed} {
		s.AddMulti(base)
		for _, p := range parts {
			s.Merge(p)
		}
		s.Add(42e6) // a buffered observation alongside the pending merges
	}
	if len(pending.pend) == 0 || len(pending.buf) == 0 {
		t.Fatalf("setup: want merges and observations pending, have %d/%d", len(pending.pend), len(pending.buf))
	}
	if err := pending.Valid(); err != nil {
		t.Fatalf("Valid with merges pending: %v", err)
	}
	flushed.Flush()
	return pending, flushed
}

// TestSketchReadersSeePendingMerges: every reader flushes first, so a
// sketch with merges pending reads exactly like the same sketch after
// an explicit Flush.
func TestSketchReadersSeePendingMerges(t *testing.T) {
	t.Run("Clone", func(t *testing.T) {
		p, f := pendingPair(t)
		c := p.Clone()
		c.Flush()
		if !reflect.DeepEqual(c.Centroids, f.Centroids) || c.Count != f.Count {
			t.Fatal("clone lost pending merges")
		}
		if len(p.pend) == 0 {
			t.Fatal("Clone flushed its source")
		}
	})
	t.Run("Shifted", func(t *testing.T) {
		p, f := pendingPair(t)
		got, want := p.Shifted(-5e6, 0), f.Shifted(-5e6, 0)
		if !reflect.DeepEqual(got.Centroids, want.Centroids) || got.Count != want.Count {
			t.Fatal("Shifted lost pending merges")
		}
	})
	t.Run("MarshalJSON", func(t *testing.T) {
		p, f := pendingPair(t)
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("JSON form lost pending merges")
		}
	})
	t.Run("AppendBinary", func(t *testing.T) {
		p, f := pendingPair(t)
		if !bytes.Equal(p.AppendBinary(nil), f.AppendBinary(nil)) {
			t.Fatal("binary form lost pending merges")
		}
	})
	t.Run("Quantile", func(t *testing.T) {
		p, f := pendingPair(t)
		for _, q := range sketchTestQs {
			if got, want := p.Quantile(q), f.Quantile(q); got != want {
				t.Fatalf("q=%g: %v with merges pending, %v flushed", q, got, want)
			}
		}
	})
}

// TestSketchMergesCommuteWithinFlush: pending centroids are sorted by
// (mean, weight) at flush time, so merges between two flushes give the
// same centroids in any order.
func TestSketchMergesCommuteWithinFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := heavyTailSample(rng, 2000)
	parts := smallCellSketches(rng, heavyTailSample(rng, 300))
	a, b := NewSketch(0), NewSketch(0)
	a.AddMulti(base)
	b.AddMulti(base)
	a.Flush()
	b.Flush()
	for _, p := range parts {
		a.Merge(p)
	}
	for i := len(parts) - 1; i >= 0; i-- {
		b.Merge(parts[i])
	}
	a.Flush()
	b.Flush()
	if !reflect.DeepEqual(a.Centroids, b.Centroids) {
		t.Fatal("merge order changed the centroids within one flush")
	}
}

// TestSketchSelfMerge: merging a sketch into itself — with observations
// buffered and merges pending — doubles every weight.
func TestSketchSelfMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sample := heavyTailSample(rng, 5000)
	s := NewSketch(0)
	s.AddMulti(sample[:4990])
	for _, p := range smallCellSketches(rng, sample[4990:]) {
		s.Merge(p)
	}
	s.Merge(s)
	if err := s.Valid(); err != nil {
		t.Fatal(err)
	}
	if s.Count != 2*int64(len(sample)) {
		t.Fatalf("self-merge count %d, want %d", s.Count, 2*len(sample))
	}
	doubled := append(append([]float64(nil), sample...), sample...)
	sort.Float64s(doubled)
	for _, q := range sketchTestQs {
		assertQuantileWithinBound(t, "self-merge", s, doubled, q)
	}
}

// TestSketchResetMatchesNew: a reset sketch — whatever its previous
// life held — refills exactly like a new one.
func TestSketchResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	used := NewSketch(0)
	used.AddMulti(heavyTailSample(rng, 1500))
	used.Merge(NewSketch(MinSketchCompression)) // empty: no-op
	coarse := NewSketch(MinSketchCompression)
	coarse.AddMulti(heavyTailSample(rng, 50))
	used.Merge(coarse) // lowers the compression
	small := NewSketch(0)
	small.AddMulti([]float64{3, 5})
	small.Flush()
	used.Flush()
	used.Merge(small) // leaves a merge pending
	used.Add(7)       // and an observation buffered
	if len(used.pend) == 0 || len(used.buf) == 0 {
		t.Fatalf("setup: want merges and observations pending, have %d/%d", len(used.pend), len(used.buf))
	}
	used.Reset(0)

	fresh := NewSketch(0)
	next := heavyTailSample(rng, 900)
	for _, s := range []*Sketch{used, fresh} {
		s.AddMulti(next)
		s.Merge(coarse)
	}
	if !bytes.Equal(used.AppendBinary(nil), fresh.AppendBinary(nil)) {
		t.Fatal("reset sketch diverges from a new one")
	}
}

// TestHistResetClearsEverything: Reset zeroes every bin, Under and Over
// — including a previous life with out-of-range mass and an occupied
// span reaching both ends — and the reset Hist refills like a new one.
func TestHistResetClearsEverything(t *testing.T) {
	wide := NewDurationHist()
	wide.Add(0)
	wide.Add(DurationHistHi - 1)
	wide.Add(250 * time.Millisecond)
	wide.AddN(-time.Millisecond, 3)
	wide.AddN(2*time.Second, 5)

	// A decoded Hist stores the span the wire form implies: Reset must
	// clear it too.
	raw, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Hist
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]*Hist{"bounded": wide, "decoded": &decoded} {
		h.Reset()
		if h.Under != 0 || h.Over != 0 {
			t.Fatalf("%s: under=%d over=%d after Reset", name, h.Under, h.Over)
		}
		for i := 0; i < h.Bins(); i++ {
			if c := h.Count(i); c != 0 {
				t.Fatalf("%s: bin %d holds %d after Reset", name, i, c)
			}
		}
		if h.N() != 0 || h.Quantile(0.5) != 0 {
			t.Fatalf("%s: reset Hist not empty", name)
		}
		fresh := NewDurationHist()
		for _, d := range []time.Duration{3 * time.Millisecond, 40 * time.Millisecond, time.Second} {
			h.Add(d)
			fresh.Add(d)
		}
		if !reflect.DeepEqual(h, fresh) {
			t.Fatalf("%s: reset Hist refills unlike a new one", name)
		}
	}
}
