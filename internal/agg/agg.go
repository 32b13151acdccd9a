// Package agg provides the repo's mergeable streaming aggregates:
// Welford moments, fixed-range histograms, and t-digest-style quantile
// sketches whose partial results, built over disjoint chunks of a
// sample in any order, merge into the same totals as one accumulator
// over the whole sample (exactly for moments/histogram counts, within
// the documented rank-error bound for sketch quantiles). This property
// is what lets both the fleet scheduler (worker-local folds merged at
// campaign end) and the ingest service (lock-striped windowed cells
// merged at query time) aggregate without ever holding raw samples.
//
// The division of labor: Moments carry mean/variance, Hist renders
// fixed-resolution CDFs and tables over the paper's 0–500 ms range,
// and Sketch answers quantiles — unclamped and tail-accurate — for the
// heavy-tailed cells (cellular promotion, PSM sweeps) whose upper
// percentiles the histogram saturates at its range cap.
//
// Promoted out of internal/fleet so fleet and ingest share one
// implementation; fleet keeps type aliases for compatibility.
package agg

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Moments is a mergeable streaming accumulator for count, mean,
// variance (via Welford's M2), min, and max. Two Moments built over
// disjoint halves of a sample and merged with Merge agree with one
// Moments built over the whole sample (up to float rounding).
type Moments struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	MinV float64 `json:"min"`
	MaxV float64 `json:"max"`
}

// Add folds one observation in.
func (m *Moments) Add(v float64) {
	m.N++
	if m.N == 1 {
		m.Mean, m.M2, m.MinV, m.MaxV = v, 0, v, v
		return
	}
	d := v - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (v - m.Mean)
	if v < m.MinV {
		m.MinV = v
	}
	if v > m.MaxV {
		m.MaxV = v
	}
}

// AddMulti folds a run of observations in one call — the ingest fold
// path's batch entry point. It runs the exact Welford recurrence of
// repeated Add (same operations, same rounding), so a batched fold is
// byte-identical to a serial per-observation fold; the win is the
// hoisted call overhead, not a different formula. (A two-pass
// chunk-and-merge would be fewer divisions but rounds differently,
// breaking the sharding-equivalence contract.)
func (m *Moments) AddMulti(vs []float64) {
	// The accumulators live in locals across the loop: through the
	// receiver pointer every iteration would store and reload each
	// field, and those memory round-trips — not the arithmetic — are
	// what showed up in the fold-path profile. The update order and
	// rounding are exactly Add's, so the result stays bit-identical.
	n, mean, m2, minv, maxv := m.N, m.Mean, m.M2, m.MinV, m.MaxV
	for _, v := range vs {
		n++
		if n == 1 {
			mean, m2, minv, maxv = v, 0, v, v
			continue
		}
		d := v - mean
		mean += d / float64(n)
		m2 += d * (v - mean)
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
	}
	m.N, m.Mean, m.M2, m.MinV, m.MaxV = n, mean, m2, minv, maxv
}

// AddN folds n copies of v in — the shape a sketch centroid takes when
// folded into moment accumulators. The centroid's internal spread is
// not recoverable, so for sketch-only input the variance is a lower
// bound.
func (m *Moments) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	m.Merge(Moments{N: n, Mean: v, MinV: v, MaxV: v})
}

// Merge folds another accumulator in (Chan et al.'s parallel variance
// update).
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	delta := o.Mean - m.Mean
	tot := n1 + n2
	m.M2 += o.M2 + delta*delta*n1*n2/tot
	m.Mean += delta * n2 / tot
	if o.MinV < m.MinV {
		m.MinV = o.MinV
	}
	if o.MaxV > m.MaxV {
		m.MaxV = o.MaxV
	}
	m.N += o.N
}

// Variance returns the unbiased sample variance.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N-1)
}

// Stddev returns the sample standard deviation.
func (m Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }

// MeanDuration interprets the accumulator as nanosecond observations.
func (m Moments) MeanDuration() time.Duration { return time.Duration(m.Mean) }

// Hist is a mergeable fixed-range histogram over durations. Counts of
// two histograms with identical geometry add exactly, so — unlike exact
// quantiles — histogram-based quantile estimates are order- and
// partition-independent.
//
// A Hist also keeps a conservative bound on its occupied bins, so Merge,
// N and Quantile cost O(occupied span) rather than O(bins): an ingest
// cell holding a few RTTs touches a few bins, not all 1000. The bound is
// maintained by every write through the methods (Add, AddN, AddMulti,
// Merge, SetCount); code that writes Counts directly must use SetCount.
type Hist struct {
	Lo     time.Duration `json:"lo_ns"`
	Hi     time.Duration `json:"hi_ns"`
	Counts []int64       `json:"counts"`
	Under  int64         `json:"under"`
	Over   int64         `json:"over"`

	// zeroLo and zeroHi count the bins at the low and high ends of
	// Counts known to be zero. The zero value knows nothing — every bin
	// may be occupied — which keeps a Hist built as a literal or decoded
	// from JSON correct; NewHist starts both at len(Counts), empty.
	zeroLo, zeroHi int
}

// Campaign-level user-RTT histogram geometry: 0.5 ms resolution up to
// 500 ms, which covers every scenario in the paper (the worst cellular
// promotions excepted — those land in Over).
const (
	DurationHistLo   = 0
	DurationHistHi   = 500 * time.Millisecond
	DurationHistBins = 1000
)

// NewHist builds a histogram with the given geometry.
func NewHist(lo, hi time.Duration, bins int) *Hist {
	if bins <= 0 {
		bins = 1
	}
	return &Hist{Lo: lo, Hi: hi, Counts: make([]int64, bins), zeroLo: bins, zeroHi: bins}
}

// UnmarshalJSON decodes the wire form and forgets any occupancy bound
// the receiver held: a decoded Hist counts as fully occupied.
func (h *Hist) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	type plain Hist
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*h = Hist(p)
	return nil
}

// occupied returns the bin span [lo,hi) outside of which every count is
// known to be zero.
func (h *Hist) occupied() (lo, hi int) {
	n := len(h.Counts)
	lo, hi = min(h.zeroLo, n), n-h.zeroHi
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// widen marks bins [lo,hi) as possibly occupied; lo < hi.
func (h *Hist) widen(lo, hi int) {
	if lo < h.zeroLo {
		h.zeroLo = lo
	}
	if z := len(h.Counts) - hi; z < h.zeroHi {
		h.zeroHi = z
	}
}

// SetCount overwrites bin i's count — the writer for decoders that
// rebuild a Hist bin by bin.
func (h *Hist) SetCount(i int, c int64) {
	h.Counts[i] = c
	if c != 0 {
		h.widen(i, i+1)
	}
}

// NewDurationHist builds a histogram with the repo-standard user-RTT
// geometry, shared by fleet campaign reports and ingest windows so
// their quantile estimates are directly comparable.
func NewDurationHist() *Hist { return NewHist(DurationHistLo, DurationHistHi, DurationHistBins) }

// BucketWidth returns the width of one bin.
func (h *Hist) BucketWidth() time.Duration {
	if len(h.Counts) == 0 {
		return 0
	}
	return (h.Hi - h.Lo) / time.Duration(len(h.Counts))
}

// Add folds one duration in.
func (h *Hist) Add(d time.Duration) { h.AddN(d, 1) }

// AddN folds n copies of d in.
func (h *Hist) AddN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	switch {
	case d < h.Lo:
		h.Under += n
	case d >= h.Hi:
		h.Over += n
	default:
		idx := int(int64(d-h.Lo) * int64(len(h.Counts)) / int64(h.Hi-h.Lo))
		if idx >= len(h.Counts) {
			idx = len(h.Counts) - 1
		}
		h.Counts[idx] += n
		h.widen(idx, idx+1)
	}
}

// AddMulti folds a run of durations in one call — the ingest fold
// path's batch entry point. Bin counts are integers, so the result is
// identical to repeated Add in any order; the win is hoisting the
// geometry loads and bounds computation out of the per-observation
// loop.
func (h *Hist) AddMulti(ds []time.Duration) {
	lo, hi := h.Lo, h.Hi
	counts := h.Counts
	nb := int64(len(counts))
	span := int64(hi - lo)
	under, over := h.Under, h.Over
	// The occupied span lives in locals too, seeded from the current
	// bound (an empty Hist seeds lo > hi) so the widening branches are
	// almost never taken once a cell's bins are established.
	olo, ohi := h.zeroLo, len(counts)-h.zeroHi
	for _, d := range ds {
		switch {
		case d < lo:
			under++
		case d >= hi:
			over++
		default:
			idx := int(int64(d-lo) * nb / span)
			if idx >= len(counts) {
				idx = len(counts) - 1
			}
			counts[idx]++
			if idx < olo {
				olo = idx
			}
			if idx >= ohi {
				ohi = idx + 1
			}
		}
	}
	h.Under, h.Over = under, over
	if olo < ohi {
		h.widen(olo, ohi)
	}
}

// CheckGeometry reports whether o can merge into h, without mutating
// either. Callers that merge several aggregates as one transaction
// (fleet groups, ingest cells) check every histogram first so a
// geometry mismatch cannot leave the receiver half-merged.
func (h *Hist) CheckGeometry(o *Hist) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("agg: merging histograms with different geometry: [%v,%v)×%d vs [%v,%v)×%d",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	return nil
}

// Merge adds another histogram's counts; geometries must match. Only
// o's occupied span is visited.
func (h *Hist) Merge(o *Hist) error {
	if o == nil {
		return nil
	}
	if err := h.CheckGeometry(o); err != nil {
		return err
	}
	h.Under += o.Under
	h.Over += o.Over
	lo, hi := o.occupied()
	if lo == hi {
		return nil
	}
	h.widen(lo, hi)
	dst := h.Counts[lo:hi]
	for i, c := range o.Counts[lo:hi] {
		dst[i] += c
	}
	return nil
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	if h == nil {
		return nil
	}
	c := *h
	c.Counts = make([]int64, len(h.Counts))
	copy(c.Counts, h.Counts)
	return &c
}

// N returns the total count including out-of-range observations.
func (h *Hist) N() int64 {
	n := h.Under + h.Over
	lo, hi := h.occupied()
	for _, c := range h.Counts[lo:hi] {
		n += c
	}
	return n
}

// Quantile estimates the q-th quantile (0..1) by interpolating within
// the bin where the cumulative count crosses q·N, assuming the bin's
// mass is spread uniformly across its width — snapping to the bin's
// upper edge, as this used to do, adds a systematic upward bias of up
// to one bin width (0.5 ms at the standard geometry). Under-range mass
// resolves to Lo and over-range mass to Hi; a cell with Over > 0 has
// its upper quantiles saturated at Hi, which callers should surface
// (the sketch-backed quantile path exists for exactly that case).
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.N()
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
	lo, hi := h.occupied()
	for i := lo; i < hi; i++ {
		c := h.Counts[i]
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
