// Package agg provides the repo's mergeable streaming aggregates:
// Welford moments, fixed-range histograms, and t-digest-style quantile
// sketches whose partial results, built over disjoint chunks of a
// sample in any order, merge into the same totals as one accumulator
// over the whole sample (exactly for moments/histogram counts, within
// the documented rank-error bound for sketch quantiles). This property
// is what lets both the fleet scheduler (worker-local folds merged at
// campaign end) and the ingest service (lock-striped windowed cells
// merged at query time) aggregate without ever holding raw samples.
// Hist and Sketch also reset in place, so a store that recycles dead
// aggregates refills them without allocating.
//
// The division of labor: Moments carry mean/variance, Hist renders
// fixed-resolution CDFs and tables over the paper's 0–500 ms range,
// and Sketch answers quantiles — unclamped and tail-accurate — for the
// heavy-tailed cells (cellular promotion, PSM sweeps) whose upper
// percentiles the histogram saturates at its range cap.
//
// A Track is the three over one set of observations: a fleet group's
// du track, an ingest cell's raw and punctured tracks. Its owners fold,
// merge and coverage-check the three through it, and Track.Agree is
// the one law for when two tracks built over the same observations in
// different fold orders agree.
//
// fleet and ingest import these types directly; there is one
// implementation and no alias layer.
package agg

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/wirebuf"
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

// AppendBinary appends the moments' binary form: uvarint N, then Mean,
// M2, MinV and MaxV as 8-byte little-endian IEEE-754 bits.
func (m Moments) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.N))
	for _, f := range [...]float64{m.Mean, m.M2, m.MinV, m.MaxV} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// ReadBinary decodes one AppendBinary form off d into m.
func (m *Moments) ReadBinary(d *wirebuf.Cursor) error {
	var err error
	if m.N, err = d.Uint63(); err != nil {
		return err
	}
	for _, p := range [...]*float64{&m.Mean, &m.M2, &m.MinV, &m.MaxV} {
		if *p, err = d.Float64(); err != nil {
			return err
		}
	}
	return nil
}

// MeanDuration interprets the accumulator as nanosecond observations.
func (m Moments) MeanDuration() time.Duration { return time.Duration(m.Mean) }

// Hist is a mergeable histogram over durations with one geometry, the
// constants DurationHistLo/Hi/Bins: any two merge, and their counts add
// exactly, so histogram quantiles are order- and partition-independent.
// ReadBinary and UnmarshalJSON refuse a form of any other geometry, so
// none can be held. The zero value is an empty histogram.
//
// A Hist stores only the span of bins it has touched: counts holds
// bins [base, base+len(counts)) and every bin outside that span is
// zero. An ingest cell holding a few RTTs therefore costs a few words,
// not the geometry's 1000, and Merge, N and Quantile cost the stored
// span rather than the bin count. The span grows on demand,
// geometrically toward the side that grows, and never past the
// geometry, so a wide hot cell costs what a dense array would. Read
// bins through Count (or Span) and write them through the methods;
// AppendBinary and ReadBinary are the sparse binary form.
type Hist struct {
	Under int64
	Over  int64

	base   int     // first stored bin
	counts []int64 // bins [base, base+len(counts)); the rest are zero
}

// The geometry of every Hist: 0.5 ms resolution up to 500 ms, which
// covers every scenario in the paper (the worst cellular promotions
// excepted — those land in Over). Fleet reports and ingest windows
// thus read one scale.
const (
	DurationHistLo   = 0
	DurationHistHi   = 500 * time.Millisecond
	DurationHistBins = 1000
)

// NewDurationHist returns an empty histogram, the same as its zero
// value.
func NewDurationHist() *Hist { return &Hist{} }

// histJSON is the wire form: the full dense bin array.
type histJSON struct {
	Lo     time.Duration `json:"lo_ns"`
	Hi     time.Duration `json:"hi_ns"`
	Counts []int64       `json:"counts"`
	Under  int64         `json:"under"`
	Over   int64         `json:"over"`
}

// MarshalJSON writes the dense wire form, the geometry and every bin
// included.
func (h Hist) MarshalJSON() ([]byte, error) {
	p := histJSON{DurationHistLo, DurationHistHi, make([]int64, DurationHistBins), h.Under, h.Over}
	copy(p.Counts[h.base:], h.counts)
	return json.Marshal(p)
}

// UnmarshalJSON decodes the dense wire form, replacing everything the
// receiver held, and stores only the span between its first and last
// nonzero bins. A form of any other geometry is refused.
func (h *Hist) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var p histJSON
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	if err := checkGeometry(int64(p.Lo), int64(p.Hi), uint64(len(p.Counts))); err != nil {
		return err
	}
	lo, hi := 0, len(p.Counts)
	for lo < hi && p.Counts[lo] == 0 {
		lo++
	}
	for hi > lo && p.Counts[hi-1] == 0 {
		hi--
	}
	h.Under, h.Over, h.base = p.Under, p.Over, lo
	h.counts = make([]int64, hi-lo)
	copy(h.counts, p.Counts[lo:hi])
	return nil
}

// checkGeometry refuses an encoded geometry other than the duration
// hist's: no Hist could hold it.
func checkGeometry(lo, hi int64, bins uint64) error {
	if lo != DurationHistLo || hi != int64(DurationHistHi) || bins != DurationHistBins {
		return fmt.Errorf("agg: histogram geometry [%d,%d)/%d is not the duration hist [%d,%d)/%d",
			lo, hi, bins, DurationHistLo, int64(DurationHistHi), DurationHistBins)
	}
	return nil
}

// AppendBinary appends the histogram's sparse binary form: geometry,
// out-of-range mass, then (bin-gap, count) pairs for the nonzero bins
// only — a mostly-empty 1000-bin histogram costs a handful of bytes
// instead of a kilobyte. Only the stored span is walked; every bin
// outside it is zero.
//
//	varint lo, hi (zigzag) · uvarint bins · uvarint under, over
//	uvarint nonzero-bin count · per bin: uvarint gap from the previous
//	nonzero bin (the first from bin 0) · uvarint count
func (h *Hist) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, wirebuf.Zigzag(DurationHistLo))
	dst = binary.AppendUvarint(dst, wirebuf.Zigzag(int64(DurationHistHi)))
	dst = binary.AppendUvarint(dst, DurationHistBins)
	dst = binary.AppendUvarint(dst, uint64(h.Under))
	dst = binary.AppendUvarint(dst, uint64(h.Over))
	nnz := 0
	for _, c := range h.counts {
		if c != 0 {
			nnz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nnz))
	prev := 0
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		i := h.base + k
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = binary.AppendUvarint(dst, uint64(c))
		prev = i
	}
	return dst
}

// ReadBinary decodes one AppendBinary form off d into the receiver,
// replacing its mass. A form of any other geometry is refused before a
// single bin is read. The form carries no length prefix (its container
// frames it), so it reads from the container's cursor rather than from
// a buffer of its own.
func (h *Hist) ReadBinary(d *wirebuf.Cursor) error {
	lo, err := d.Varint()
	if err != nil {
		return err
	}
	hi, err := d.Varint()
	if err != nil {
		return err
	}
	nbins, err := d.Uvarint()
	if err != nil {
		return err
	}
	if err := checkGeometry(lo, hi, nbins); err != nil {
		return err
	}
	h.Reset()
	if h.Under, err = d.Uint63(); err != nil {
		return err
	}
	if h.Over, err = d.Uint63(); err != nil {
		return err
	}
	nnz, err := d.Count(DurationHistBins)
	if err != nil {
		return err
	}
	if nnz == 0 {
		return nil
	}
	// A checking pass over a copy of the cursor finds the first and last
	// bin, so the span is sized once; the second pass reads the same
	// bytes again and cannot fail.
	pre := *d
	first, last, err := readSparseBins(&pre, nnz, nil)
	if err != nil {
		return err
	}
	h.grow(first, last+1)
	_, _, err = readSparseBins(d, nnz, h.counts)
	return err
}

// readSparseBins reads nnz (gap, count) pairs — the first gap is bin
// 0's offset, each later one at least 1 — checking every bin and
// count, and returns the first and last bin. When counts is non-nil
// (the span sized to those bins) it stores each count there.
func readSparseBins(d *wirebuf.Cursor, nnz int, counts []int64) (first, last int, err error) {
	bin := 0
	for i := 0; i < nnz; i++ {
		gap, err := d.Uvarint()
		if err != nil {
			return 0, 0, err
		}
		cnt, err := d.Uint63()
		if err != nil {
			return 0, 0, err
		}
		if i > 0 && (gap == 0 || gap > DurationHistBins) {
			return 0, 0, fmt.Errorf("agg: histogram bin gap %d out of order", gap)
		}
		bin += int(gap)
		if bin < 0 || bin >= DurationHistBins || cnt == 0 {
			return 0, 0, fmt.Errorf("agg: histogram bin %d/count %d out of range", bin, cnt)
		}
		if i == 0 {
			first = bin
		}
		if counts != nil {
			counts[bin-first] = cnt
		}
	}
	return first, bin, nil
}

// Bins returns the geometry's bin count.
func (h *Hist) Bins() int { return DurationHistBins }

// Count returns bin i's count (zero outside the stored span).
func (h *Hist) Count(i int) int64 {
	if j := i - h.base; uint(j) < uint(len(h.counts)) {
		return h.counts[j]
	}
	return 0
}

// Span returns the stored bins: counts[k] is bin base+k, and every bin
// outside the span is zero. The slice is the Hist's own storage — read
// it, never write it.
func (h *Hist) Span() (base int, counts []int64) { return h.base, h.counts }

// grow widens the stored span to cover bins [lo,hi), a range inside
// the geometry (anything else is a bug, and panics). A span that
// already holds bins at least doubles toward each side that grows
// (clamped to the geometry), so a widening hot cell reallocates
// O(log bins) times. The new length depends only on
// the old span and the request, never on spare capacity, so a reset
// Hist refills exactly like a new one; spare capacity only spares the
// allocation.
func (h *Hist) grow(lo, hi int) {
	if lo < 0 || hi > DurationHistBins {
		panic(fmt.Sprintf("agg: bins [%d,%d) outside [0,%d)", lo, hi, DurationHistBins))
	}
	n, shift := len(h.counts), 0
	if n > 0 {
		oldLo, oldHi := h.base, h.base+n
		if lo >= oldLo {
			lo = oldLo
		} else {
			lo = max(min(lo, oldHi-2*n), 0)
		}
		if hi <= oldHi {
			hi = oldHi
		} else {
			hi = min(max(hi, oldLo+2*n), DurationHistBins)
		}
		shift = oldLo - lo
	}
	// Reuse the backing array when it is big enough: move the old span
	// into place (copy is a memmove), then zero everything else the new
	// span exposes — including stale bins a Reset left behind.
	c := h.counts[:0]
	if size := hi - lo; size <= cap(c) {
		c = c[:size]
	} else {
		c = make([]int64, size)
	}
	copy(c[shift:], h.counts)
	clear(c[:shift])
	clear(c[shift+n:])
	h.base, h.counts = lo, c
}

// BucketWidth returns the width of one bin.
func (h *Hist) BucketWidth() time.Duration {
	return (DurationHistHi - DurationHistLo) / DurationHistBins
}

// bin maps an in-range duration, DurationHistLo <= d < DurationHistHi,
// to its bin.
func bin(d time.Duration) int {
	return int(int64(d-DurationHistLo) * DurationHistBins / int64(DurationHistHi-DurationHistLo))
}

// Add folds one duration in.
func (h *Hist) Add(d time.Duration) { h.AddN(d, 1) }

// AddN folds n copies of d in.
func (h *Hist) AddN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	switch {
	case d < DurationHistLo:
		h.Under += n
	case d >= DurationHistHi:
		h.Over += n
	default:
		i := bin(d)
		j := i - h.base
		if uint(j) >= uint(len(h.counts)) {
			h.grow(i, i+1)
			j = i - h.base
		}
		h.counts[j] += n
	}
}

// AddMulti folds a run of durations in one call — the ingest fold
// path's batch entry point. Bin counts are integers, so the result is
// identical to repeated Add in any order; the win is hoisting the span
// loads out of the per-observation loop. Each observation costs one
// in-span check; only a miss leaves the loop to grow the span, and
// folding resumes at the missed observation.
func (h *Hist) AddMulti(ds []time.Duration) {
	for {
		k, i := h.addInSpan(ds)
		if k == len(ds) {
			return
		}
		h.grow(i, i+1)
		ds = ds[k:]
	}
}

// addInSpan folds ds up to its first in-range duration whose bin lies
// outside the stored span, and returns that duration's index and bin
// (len(ds) when every duration was folded). The loop makes no calls,
// so the span stays in registers.
func (h *Hist) addInSpan(ds []time.Duration) (k, i int) {
	under, over := h.Under, h.Over
	base, counts := h.base, h.counts
	for k = 0; k < len(ds); k++ {
		d := ds[k]
		if d < DurationHistLo {
			under++
			continue
		}
		if d >= DurationHistHi {
			over++
			continue
		}
		i = bin(d)
		j := i - base
		if uint(j) >= uint(len(counts)) {
			break
		}
		counts[j]++
	}
	h.Under, h.Over = under, over
	return k, i
}

// Merge adds another histogram's counts. Only o's stored span is
// visited, and h's span grows only when o's does not fit inside it.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	h.Under += o.Under
	h.Over += o.Over
	src := o.counts
	if len(src) == 0 {
		return
	}
	j := o.base - h.base
	if j < 0 || j+len(src) > len(h.counts) {
		h.grow(o.base, o.base+len(src))
		j = o.base - h.base
	}
	dst := h.counts[j:][:len(src)]
	for i, c := range src {
		dst[i] += c
	}
}

// Reset empties the histogram in place in O(1), keeping its backing
// array: a recycled cell refills without allocating. The stale bins
// beyond the emptied span are zeroed when growth exposes them again.
func (h *Hist) Reset() {
	h.Under, h.Over = 0, 0
	h.base, h.counts = 0, h.counts[:0]
}

// Clone returns a deep copy holding only the stored span.
func (h *Hist) Clone() *Hist {
	if h == nil {
		return nil
	}
	c := *h
	c.counts = nil
	if len(h.counts) > 0 {
		c.counts = make([]int64, len(h.counts))
		copy(c.counts, h.counts)
	}
	return &c
}

// N returns the total count including out-of-range observations.
func (h *Hist) N() int64 {
	n := h.Under + h.Over
	for _, c := range h.counts {
		n += c
	}
	return n
}

// countUpTo is N for a histogram from outside this process: it reports
// false instead of a total when a count is negative or the running sum
// passes max, so hostile counts cannot wrap the sum back into range.
func (h *Hist) countUpTo(max int64) (int64, bool) {
	var n int64
	for _, c := range [2]int64{h.Under, h.Over} {
		if c < 0 || c > max-n {
			return 0, false
		}
		n += c
	}
	for _, c := range h.counts {
		if c < 0 || c > max-n {
			return 0, false
		}
		n += c
	}
	return n, true
}

// Quantile estimates the q-th quantile (0..1) by interpolating within
// the bin where the cumulative count crosses q·N, assuming the bin's
// mass is spread uniformly across its width — snapping to the bin's
// upper edge, as this used to do, adds a systematic upward bias of up
// to one bin width (0.5 ms). Under-range mass resolves to
// DurationHistLo and over-range mass to DurationHistHi; a cell with
// Over > 0 has its upper quantiles saturated at DurationHistHi, which
// callers should surface (the sketch-backed quantile path exists for
// exactly that case).
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
		return DurationHistLo
	}
	width := float64(DurationHistHi-DurationHistLo) / DurationHistBins
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := float64(target-cum) / float64(c)
			return DurationHistLo + time.Duration((float64(h.base+k)+frac)*width)
		}
		cum += c
	}
	return DurationHistHi
}
