package agg

import (
	"math"
	"slices"
	"sync"
)

// Flush-time workspace. A compression pass needs a merged centroid
// list roughly the size of centroids+buffer, the centroid list with
// pending merges folded in, a merge-sort buffer and run index for the
// pending list, and, for the radix sort, two key buffers the size of
// the buffer. Held per sketch that would pin tens of KiB on every
// resident cell aggregate, so the workspace is pooled package-wide
// instead: peak memory tracks concurrent flushes (a handful of fold
// workers), not live sketches, and a steady-state flush still
// allocates nothing.
type flushScratch struct {
	merged, pending, sortTmp []Centroid
	runs                     []int
	keys, tmp                []uint64
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// growU64 resizes s to n, reallocating only when capacity is short.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// centroidLess orders centroids by (mean, weight).
func centroidLess(a, b Centroid) bool {
	return a.Mean < b.Mean || (a.Mean == b.Mean && a.Weight < b.Weight)
}

// sortCentroids orders a pending-merge list by (mean, weight) and
// returns the sorted list, which lives either in cs or in the scratch.
// Equal pairs are interchangeable, so the result depends only on the
// multiset of pending centroids, never on the order they were merged.
//
// The list is a concatenation of sorted runs — each merged sketch's
// centroid list is one — so a bottom-up natural merge sort pays
// log2(runs) linear passes, not a comparison sort's log2(n): a few
// large merged sketches cost about one pass. A list holding a NaN mean
// (only a direct Add of NaN makes one) comes out in no defined order;
// Valid rejects such sketches.
func (fs *flushScratch) sortCentroids(cs []Centroid) []Centroid {
	runs := append(fs.runs[:0], 0)
	for i := 1; i < len(cs); i++ {
		if centroidLess(cs[i], cs[i-1]) {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(cs))
	if cap(fs.sortTmp) < len(cs) {
		fs.sortTmp = make([]Centroid, len(cs))
	}
	src, dst := cs, fs.sortTmp[:len(cs)]
	for len(runs) > 2 {
		// Merge adjacent run pairs from src into dst; the run index
		// shrinks in place, each pass writing behind its read position.
		next := runs[:1]
		i := 0
		for ; i+2 < len(runs); i += 2 {
			lo, mid, hi := runs[i], runs[i+1], runs[i+2]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		if i+1 < len(runs) { // odd run out: carried over unchanged
			copy(dst[runs[i]:], src[runs[i]:runs[i+1]])
			next = append(next, runs[i+1])
		}
		runs = next
		src, dst = dst, src
	}
	fs.runs = runs
	return src
}

// mergeRuns merges two sorted runs into dst, a's centroids first on
// equal keys; len(dst) == len(a)+len(b).
func mergeRuns(dst, a, b []Centroid) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if centroidLess(b[0], a[0]) {
			dst[k] = b[0]
			b = b[1:]
		} else {
			dst[k] = a[0]
			a = a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// radixMinLen is the buffer length below which the comparison sort
// wins — the radix transform and per-pass histogram have a flat cost
// that only pays for itself on flush-sized buffers.
const radixMinLen = 128

const f64SignBit = 1 << 63

// sortObservations sorts a flush buffer ascending. All-finite buffers
// — every buffer the fold path produces, since RTTs arrive as integer
// nanoseconds — take an LSD radix sort over the order-preserving bit
// transform of IEEE-754 doubles (flip the sign bit on non-negatives,
// all bits on negatives), which replaces the comparison sort's
// branch-heavy partitioning with sequential counting passes. Buffers
// containing NaN fall back to slices.Sort, whose NaN-first order is
// part of cmp.Less's contract; the bit transform would order NaNs by
// sign bit instead.
func (fs *flushScratch) sortObservations(vs []float64) {
	if len(vs) < radixMinLen {
		slices.Sort(vs)
		return
	}
	n := len(vs)
	keys := growU64(fs.keys, n)
	tmp := growU64(fs.tmp, n)
	// Transform, NaN-scan, and XOR-fold in one pass: a byte position
	// where every key matches keys[0] contributes nothing to the order,
	// and real buffers are narrow-range integer-valued floats (RTTs
	// share an exponent and have trailing mantissa zeros), so typically
	// only 3–4 of the 8 byte positions are live — the rest skip their
	// counting and scatter passes entirely.
	first := math.Float64bits(vs[0])
	if first&f64SignBit != 0 {
		first = ^first
	} else {
		first |= f64SignBit
	}
	var varying uint64
	for i, v := range vs {
		if v != v { // NaN: only reachable through direct API use
			slices.Sort(vs)
			return
		}
		b := math.Float64bits(v)
		if b&f64SignBit != 0 {
			b = ^b
		} else {
			b |= f64SignBit
		}
		keys[i] = b
		varying |= b ^ first
	}
	// 8 bits per pass, least significant first; dead byte positions
	// cost nothing.
	var counts [256]int32
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		clear(counts[:])
		for _, k := range keys {
			counts[(k>>shift)&0xff]++
		}
		pos := int32(0)
		for b := range counts {
			c := counts[b]
			counts[b] = pos
			pos += c
		}
		for _, k := range keys {
			b := (k >> shift) & 0xff
			tmp[counts[b]] = k
			counts[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		if k&f64SignBit != 0 {
			k ^= f64SignBit
		} else {
			k = ^k
		}
		vs[i] = math.Float64frombits(k)
	}
	fs.keys, fs.tmp = keys, tmp
}
