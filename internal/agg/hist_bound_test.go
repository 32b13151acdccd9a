package agg

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The occupancy bound lets Merge, N and Quantile visit only a Hist's
// occupied span. These tests pin that every bounded operation matches
// the dense loop over all bins, for every way a Hist comes to exist.

// denseMerge, denseN and denseQuantile are the reference loops: the
// bound-free algorithms over every bin.
func denseMerge(h, o *Hist) {
	h.Under += o.Under
	h.Over += o.Over
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
}

func denseN(h *Hist) int64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func denseQuantile(h *Hist, q float64) time.Duration {
	n := denseN(h)
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := h.Under
	if cum >= target {
		return h.Lo
	}
	width := float64(h.Hi-h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := float64(target-cum) / float64(c)
			return h.Lo + time.Duration((float64(i)+frac)*width)
		}
		cum += c
	}
	return h.Hi
}

// denseCopy is an unbounded (literal-built) copy of h.
func denseCopy(h *Hist) *Hist {
	return &Hist{Lo: h.Lo, Hi: h.Hi, Counts: append([]int64(nil), h.Counts...), Under: h.Under, Over: h.Over}
}

// checkBound asserts the invariant the bounded loops rely on: no
// nonzero bin lies outside the occupied span.
func checkBound(t *testing.T, what string, h *Hist) {
	t.Helper()
	lo, hi := h.occupied()
	for i, c := range h.Counts {
		if c != 0 && (i < lo || i >= hi) {
			t.Fatalf("%s: bin %d holds %d outside the occupied span [%d,%d)", what, i, c, lo, hi)
		}
	}
}

// randomHist builds a standard-geometry Hist one of five ways: bounded
// by Add, AddN or AddMulti; a dense literal (the zero-value bound); a
// JSON round trip; or bin by bin through SetCount, as the gossip
// decoder does. Values are sparse — a few bins, sometimes none, and
// sometimes only out-of-range mass.
func randomHist(rng *rand.Rand) (*Hist, string) {
	src := NewDurationHist()
	for n := rng.Intn(6); n > 0; n-- {
		d := time.Duration(rng.Int63n(int64(520*time.Millisecond))) - 10*time.Millisecond
		switch rng.Intn(3) {
		case 0:
			src.Add(d)
		case 1:
			src.AddN(d, 1+rng.Int63n(5))
		default:
			src.AddMulti([]time.Duration{d, d + time.Duration(rng.Int63n(int64(time.Millisecond)))})
		}
	}
	switch rng.Intn(5) {
	case 0:
		return src, "bounded"
	case 1:
		return denseCopy(src), "literal"
	case 2:
		b, err := json.Marshal(src)
		if err != nil {
			panic(err)
		}
		// Decode into a Hist that already holds a tight bound from
		// other data: the decoded counts must not inherit it.
		h := NewDurationHist()
		h.Add(250 * time.Millisecond)
		if err := json.Unmarshal(b, h); err != nil {
			panic(err)
		}
		return h, "json"
	case 3:
		var h Hist
		b, _ := json.Marshal(src)
		if err := json.Unmarshal(b, &h); err != nil {
			panic(err)
		}
		return &h, "json-fresh"
	default:
		h := NewDurationHist()
		h.Under, h.Over = src.Under, src.Over
		for i, c := range src.Counts {
			if c != 0 {
				h.SetCount(i, c)
			}
		}
		return h, "setcount"
	}
}

func sameCounts(a, b *Hist) bool {
	if a.Under != b.Under || a.Over != b.Over || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

func TestHistBoundMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 2000; trial++ {
		// Fold a random chain of Hists into one accumulator, merging
		// in both directions (acc into a fresh Hist, and a fresh Hist
		// into acc), and keep a dense twin updated with the reference
		// loop alongside.
		acc, kind := randomHist(rng)
		ref := denseCopy(acc)
		for step := rng.Intn(4); step >= 0; step-- {
			o, okind := randomHist(rng)
			if rng.Intn(2) == 0 {
				if err := acc.Merge(o); err != nil {
					t.Fatal(err)
				}
				denseMerge(ref, o)
			} else {
				r := denseCopy(o)
				denseMerge(r, ref)
				if err := o.Merge(acc); err != nil {
					t.Fatal(err)
				}
				acc, ref = o, r
			}
			kind += "+" + okind
			checkBound(t, kind, acc)
		}
		if !sameCounts(acc, ref) {
			t.Fatalf("trial %d (%s): bounded merge diverges from dense", trial, kind)
		}
		if got, want := acc.N(), denseN(ref); got != want {
			t.Fatalf("trial %d (%s): N = %d, dense %d", trial, kind, got, want)
		}
		for _, q := range qs {
			if got, want := acc.Quantile(q), denseQuantile(ref, q); got != want {
				t.Fatalf("trial %d (%s): Quantile(%v) = %v, dense %v", trial, kind, q, got, want)
			}
		}
		c := acc.Clone()
		checkBound(t, kind+" clone", c)
		if !sameCounts(c, ref) || c.N() != denseN(ref) || c.Quantile(0.5) != denseQuantile(ref, 0.5) {
			t.Fatalf("trial %d (%s): clone diverges", trial, kind)
		}
		// A clone keeps the bound and stays independent of its source.
		c.Add(499 * time.Millisecond)
		if acc.N() != denseN(ref) {
			t.Fatalf("trial %d (%s): clone write reached the source", trial, kind)
		}
	}
}

// TestHistZeroValue: a zero-value Hist is empty and answers like one.
func TestHistZeroValue(t *testing.T) {
	var h Hist
	if h.N() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero Hist: N=%d p50=%v", h.N(), h.Quantile(0.5))
	}
	if err := h.Merge(&Hist{}); err != nil {
		t.Fatal(err)
	}
	if h.N() != 0 {
		t.Fatal("merging two zero Hists made mass")
	}
}
