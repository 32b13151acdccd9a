package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// Centroid is one weighted point of a Sketch: Weight observations whose
// mean is Mean. Centroids are kept sorted by mean.
type Centroid struct {
	Mean   float64 `json:"m"`
	Weight int64   `json:"w"`
}

// Sketch is a mergeable t-digest-style streaming quantile sketch: it
// summarizes an unbounded stream of observations in O(Compression)
// centroids, keeps min and max exactly, and answers arbitrary quantiles
// with a rank-error bound proportional to q·(1−q) — tightest exactly at
// the tails, where the fixed-range Hist saturates (every observation ≥
// its upper edge collapses into Over, pinning p99 at the range cap for
// heavy-tailed cells). Sketches built over disjoint chunks of a sample
// and merged in any order describe the same distribution within
// QuantileErrorBound of the whole-stream sketch.
//
// Merge is buffered like Add: a merged sketch's centroids wait in a
// pending list and its unflushed observations join the buffer, and the
// next Flush sorts both in with one compression pass. Folding many
// small sketches into one accumulator therefore costs per merged
// centroid, not per accumulator centroid per merge.
//
// The compression pass is deterministic: given the same sequence of
// Add and Merge calls, a sketch always produces the same centroids.
// Within one flush the pending centroids are sorted by (mean, weight),
// so merges between two flushes commute; different fold orders
// (different worker schedules) still produce different centroids but
// the same quantiles within the documented bound — which is why
// cross-run comparisons (ingested vs offline aggregates) check
// quantile agreement within the bound rather than centroid equality.
//
// Like Hist and Moments, a Sketch is not safe for concurrent use;
// callers serialize access (worker-local folds, stripe locks).
type Sketch struct {
	// Compression bounds the centroid count and sets the error bound;
	// see NewSketch.
	Compression float64
	// Count is the total number of observations folded in.
	Count int64
	// MinV / MaxV are the exact extremes of the stream.
	MinV float64
	MaxV float64
	// Centroids is the compressed summary, sorted by mean. Buffered
	// observations and pending merges are excluded; call Flush before
	// reading Centroids directly.
	Centroids []Centroid

	buf  []float64  // uncompressed recent observations
	pend []Centroid // merged-in centroid runs awaiting the next Flush
}

// Sketch sizing. The default compression keeps ≤ ~2·Compression
// centroids (~6 KiB) per sketch and a p99/p01 rank error two orders of
// magnitude below the histogram's saturated tail.
const (
	DefaultSketchCompression = 200
	MinSketchCompression     = 20
	MaxSketchCompression     = 1000
)

// NewSketch builds a sketch. compression <= 0 selects the default; the
// value is clamped to [MinSketchCompression, MaxSketchCompression].
func NewSketch(compression float64) *Sketch {
	return &Sketch{Compression: clampCompression(compression)}
}

func clampCompression(c float64) float64 {
	switch {
	case c <= 0 || math.IsNaN(c):
		return DefaultSketchCompression
	case c < MinSketchCompression:
		return MinSketchCompression
	case c > MaxSketchCompression:
		return MaxSketchCompression
	default:
		return c
	}
}

// normalize floors an unset or out-of-range compression (a zero-value
// Sketch, or one decoded from JSON that never went through Valid, e.g.
// a fleet report round-trip) before it is used. Without this, 0 would
// merge every centroid into one (kScale is flat at compression 0) and
// make QuantileErrorBound infinite; a huge value would stop the buffer
// from ever flushing.
func (s *Sketch) normalize() {
	if s.Compression < MinSketchCompression || s.Compression > MaxSketchCompression || math.IsNaN(s.Compression) {
		s.Compression = clampCompression(s.Compression)
	}
}

// bufLimit is the buffered-observation plus pending-centroid count that
// triggers a compression pass; compression cost amortizes over it.
func (s *Sketch) bufLimit() int {
	n := int(4 * s.Compression)
	if n < 64 {
		n = 64
	}
	return n
}

// Add folds one observation in.
func (s *Sketch) Add(v float64) {
	s.normalize()
	if s.Count == 0 || v < s.MinV {
		s.MinV = v
	}
	if s.Count == 0 || v > s.MaxV {
		s.MaxV = v
	}
	s.Count++
	s.buf = append(s.buf, v)
	if len(s.buf)+len(s.pend) >= s.bufLimit() {
		s.Flush()
	}
}

// AddDuration folds one duration in as float nanoseconds, the unit
// every RTT aggregate in this repo uses.
func (s *Sketch) AddDuration(d time.Duration) { s.Add(float64(d)) }

// AddMulti folds a run of observations in one call — the batch entry
// point the ingest fold path uses to amortize the per-call normalize
// and bounds checks across a whole same-cell run. It flushes at
// exactly the same buffer boundaries sequential Add calls would, so a
// batched fold stays byte-identical to a serial per-observation fold.
func (s *Sketch) AddMulti(vs []float64) {
	if len(vs) == 0 {
		return
	}
	s.normalize()
	limit := s.bufLimit()
	for len(vs) > 0 {
		n := limit - len(s.buf) - len(s.pend)
		if n > len(vs) {
			n = len(vs)
		}
		chunk := vs[:n]
		// Count/min/max ride in locals across the chunk (same
		// store-reload avoidance as Moments.AddMulti); Flush doesn't
		// touch them, so writing back once per chunk is safe.
		count, minv, maxv := s.Count, s.MinV, s.MaxV
		for _, v := range chunk {
			if count == 0 || v < minv {
				minv = v
			}
			if count == 0 || v > maxv {
				maxv = v
			}
			count++
		}
		s.Count, s.MinV, s.MaxV = count, minv, maxv
		s.buf = append(s.buf, chunk...)
		vs = vs[n:]
		if len(s.buf)+len(s.pend) >= limit {
			s.Flush()
		}
	}
}

// N returns the total observation count.
func (s *Sketch) N() int64 { return s.Count }

// Flush compresses any buffered observations and pending merges into
// the centroid list. Idempotent; called automatically by Quantile,
// Shifted, and both marshallers. The sort keys and merge workspace come
// from the pooled flushScratch and the centroid list itself is reused
// across flushes, so a steady-state flush allocates nothing — this is
// the allocation the ingest fold path used to pay once per bufLimit
// observations.
func (s *Sketch) Flush() {
	s.normalize()
	if len(s.buf) == 0 && len(s.pend) == 0 {
		return
	}
	fs := flushScratchPool.Get().(*flushScratch)
	// Pending merges join the centroid list first (existing centroids
	// win ties); a sketch that never received a Merge skips this step,
	// so its flush is exactly the two-list merge below.
	cs := s.Centroids
	if len(s.pend) > 0 {
		dst := &fs.merged // the final list unless observations follow
		if len(s.buf) > 0 {
			dst = &fs.pending
		}
		*dst = mergeSortedCentroids((*dst)[:0], cs, fs.sortCentroids(s.pend))
		cs = *dst
		s.pend = s.pend[:0]
	}
	if len(s.buf) > 0 {
		fs.sortObservations(s.buf)
		fs.merged = mergeObservations(fs.merged[:0], cs, s.buf)
		cs = fs.merged
		s.buf = s.buf[:0]
	}
	s.Centroids = compressInto(s.Centroids[:0], cs, s.Count, s.Compression)
	flushScratchPool.Put(fs)
}

// mergeObservations linearly merges a mean-sorted centroid list with a
// sorted observation buffer (each value a weight-1 centroid) into dst;
// existing centroids win ties, matching a two-list centroid merge.
func mergeObservations(dst, cs []Centroid, buf []float64) []Centroid {
	i, j := 0, 0
	for i < len(cs) || j < len(buf) {
		if j >= len(buf) || (i < len(cs) && cs[i].Mean <= buf[j]) {
			dst = append(dst, cs[i])
			i++
		} else {
			dst = append(dst, Centroid{Mean: buf[j], Weight: 1})
			j++
		}
	}
	return dst
}

// mergeSortedCentroids linearly merges two mean-sorted centroid lists
// into dst, a's centroids first on equal means — Flush and Merge
// combine lists that are sorted by construction, so no comparison sort
// is needed.
func mergeSortedCentroids(dst, a, b []Centroid) []Centroid {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Mean <= b[j].Mean) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return dst
}

// The compression pass follows the t-digest k1 scale function,
// k(q) = compression/(2π)·asin(2q−1): a centroid may only span one
// k-unit, and since dk/dq diverges as q→0 or 1, tail centroids shrink
// to single observations while mid-range centroids grow — resolution
// concentrates exactly where Hist loses it. The total k-span of [0,1]
// is compression/2, which bounds the centroid count independently of
// stream length.
//
// qLimitAfter is the spanning rule solved for quantiles: the largest q
// a centroid whose left edge sits at quantile q0 may extend to before
// it spans more than one k-unit, q = (sin(asin(2q0−1) + δ) + 1)/2 with
// δ = 2π/compression. The angle addition expands to
// (2q0−1)·cos δ + √(1−(2q0−1)²)·sin δ, so with sin δ and cos δ hoisted
// by the caller the per-emitted-centroid cost is one sqrt — no trig at
// all on the compression path (the asin/sin pair here used to be the
// flush's largest single cost after the sort).
func qLimitAfter(q0, sinD, cosD float64) float64 {
	x := 2*q0 - 1
	if x >= cosD { // asin(2q0−1)+δ ≥ π/2: the k-budget reaches q=1
		return 1
	}
	return (x*cosD + math.Sqrt(1-x*x)*sinD + 1) / 2
}

// compressInto runs the deterministic single-pass merge over a
// mean-sorted centroid list, appending the result to dst: adjacent
// centroids coalesce while the combined centroid still spans at most
// one k-unit of the scale function (checked against the precomputed
// inverse-scale quantile limit, which is kScale(qRight)−kLeft ≤ 1
// rearranged through the monotone inverse). dst may be the zero-length
// head of the slice that previously held the sketch's centroids —
// sorted lives in separate scratch space by then, so the append never
// clobbers an unread input.
func compressInto(dst, sorted []Centroid, total int64, compression float64) []Centroid {
	if len(sorted) == 0 {
		return nil
	}
	cur := sorted[0]
	var wSoFar int64
	tf := float64(total)
	sinD, cosD := math.Sincos(2 * math.Pi / compression)
	// The limit is carried in weight space (qLimit·total), so the
	// per-input check is a convert-and-compare with no division.
	wLimit := qLimitAfter(0, sinD, cosD) * tf
	for _, c := range sorted[1:] {
		proposed := cur.Weight + c.Weight
		if float64(wSoFar+proposed) <= wLimit {
			cur.Mean += (c.Mean - cur.Mean) * float64(c.Weight) / float64(proposed)
			cur.Weight = proposed
		} else {
			dst = append(dst, cur)
			wSoFar += cur.Weight
			wLimit = qLimitAfter(float64(wSoFar)/tf, sinD, cosD) * tf
			cur = c
		}
	}
	return append(dst, cur)
}

// Merge folds another sketch in without mutating it; the merged sketch
// summarizes the union of both streams. It adopts the coarser (smaller)
// compression of the two: resolution already lost to a
// lower-compression input cannot be recovered by re-labelling, so
// keeping the finer value would make QuantileErrorBound silently
// understate the true error of the merged data.
//
// Merge is buffered: o's centroids and pending merges are appended to
// the receiver's pending list and its unflushed observations to the
// receiver's observation buffer, and compression waits for the next
// Flush — forced here once the buffer and pending list together reach
// bufLimit, so the uncompressed backlog is bounded exactly as Add
// bounds it. The exception is a flushed o holding at least as many
// centroids as the receiver (a worker-local or replica sketch merged
// into a campaign total): deferring its compression would save nothing
// — the pass costs about what the merge does — and re-sorting its run
// at flush time would cost more, so it merges linearly at once.
// Merging a sketch into itself is allowed.
func (s *Sketch) Merge(o *Sketch) {
	s.normalize()
	if o == nil || o.Count == 0 {
		return
	}
	if oc := clampCompression(o.Compression); oc < s.Compression {
		s.Compression = oc
	}
	if s.Count == 0 || o.MinV < s.MinV {
		s.MinV = o.MinV
	}
	if s.Count == 0 || o.MaxV > s.MaxV {
		s.MaxV = o.MaxV
	}
	// Read o's lists before appending: when o == s the appends below
	// grow the very lists being copied.
	cs, pend, buf := o.Centroids, o.pend, o.buf
	if len(pend) == 0 && len(buf) == 0 && len(cs) > 0 && len(cs) >= len(s.Centroids) {
		s.Flush()
		s.Count += o.Count
		fs := flushScratchPool.Get().(*flushScratch)
		fs.merged = mergeSortedCentroids(fs.merged[:0], s.Centroids, cs)
		s.Centroids = compressInto(s.Centroids[:0], fs.merged, s.Count, s.Compression)
		flushScratchPool.Put(fs)
		return
	}
	s.Count += o.Count
	s.pend = append(s.pend, cs...)
	s.pend = append(s.pend, pend...)
	s.buf = append(s.buf, buf...)
	if len(s.buf)+len(s.pend) >= s.bufLimit() {
		s.Flush()
	}
}

// CheckCoverage enforces the coverage invariant of an aggregate track:
// its moments folded n observations, and its sketch and each of its
// histograms describe exactly those n. The sketch must be present and
// pass Valid — it is the track's only quantile source, so a record
// without one (written before sketches existed) cannot serve
// percentiles. Each histogram must be present and count n; its
// geometry needs no check, since every Hist has the one duration
// geometry and its decoders refuse any other. Aggregates built in this
// process hold the invariant by construction; every decoder that
// builds one from outside runs this check, so merges and readers rely
// on it instead of re-checking.
func CheckCoverage(n int64, sk *Sketch, hs ...*Hist) error {
	if sk == nil {
		return fmt.Errorf("agg: no sketch covers the track's %d observations (a record written before sketches existed)", n)
	}
	if err := sk.Valid(); err != nil {
		return err
	}
	if sk.Count != n {
		return fmt.Errorf("agg: sketch covers %d of the track's %d observations", sk.Count, n)
	}
	for _, h := range hs {
		if h == nil {
			return fmt.Errorf("agg: no histogram covers the track's %d observations", n)
		}
		if hn, ok := h.countUpTo(n); !ok || hn != n {
			return fmt.Errorf("agg: histogram does not cover exactly the track's %d observations", n)
		}
	}
	return nil
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	c.Centroids = append([]Centroid(nil), s.Centroids...)
	c.buf = append([]float64(nil), s.buf...)
	c.pend = append([]Centroid(nil), s.pend...)
	return &c
}

// Reset empties the sketch into the state NewSketch(compression)
// returns, keeping the capacity of its centroid list, buffer and
// pending list so a recycled aggregate refills without allocating.
func (s *Sketch) Reset(compression float64) {
	*s = Sketch{
		Compression: clampCompression(compression),
		Centroids:   s.Centroids[:0],
		buf:         s.buf[:0],
		pend:        s.pend[:0],
	}
}

// Shifted returns an independent copy with delta added to every value,
// clamped from below at floor — the shape puncturing needs: subtracting
// a correction from a device-posted sketch while keeping corrected RTTs
// non-negative, exactly as the per-observation path clamps.
func (s *Sketch) Shifted(delta, floor float64) *Sketch {
	c := s.Clone()
	c.Flush()
	clamp := func(v float64) float64 {
		if v += delta; v < floor {
			return floor
		}
		return v
	}
	for i := range c.Centroids {
		c.Centroids[i].Mean = clamp(c.Centroids[i].Mean)
	}
	if c.Count > 0 {
		c.MinV = clamp(c.MinV)
		c.MaxV = clamp(c.MaxV)
	}
	return c
}

// Quantile estimates the q-th quantile (0..1) by interpolating between
// centroid means, with the exact min and max anchoring the extremes.
// Compresses buffered observations first.
func (s *Sketch) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.MinV
	}
	if q >= 1 {
		return s.MaxV
	}
	s.Flush()
	cs := s.Centroids
	if len(cs) == 1 {
		return cs[0].Mean
	}
	target := q * float64(s.Count)
	// Each centroid's mass is treated as centered at its mean: centroid
	// i's mean sits at rank cum_i + w_i/2. Interpolate linearly between
	// successive (rank, mean) anchors, with (0, min) and (count, max) as
	// the outermost anchors.
	prevMean, prevRank := s.MinV, 0.0
	var cum float64
	for _, c := range cs {
		rank := cum + float64(c.Weight)/2
		if target < rank {
			return s.interp(target, prevRank, prevMean, rank, c.Mean)
		}
		prevMean, prevRank = c.Mean, rank
		cum += float64(c.Weight)
	}
	return s.interp(target, prevRank, prevMean, float64(s.Count), s.MaxV)
}

// QuantileDuration returns Quantile as a duration.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

func (s *Sketch) interp(target, r0, v0, r1, v1 float64) float64 {
	v := v0
	if r1 > r0 {
		v = v0 + (v1-v0)*(target-r0)/(r1-r0)
	}
	if v < s.MinV {
		v = s.MinV
	}
	if v > s.MaxV {
		v = s.MaxV
	}
	return v
}

// QuantileErrorBound returns the documented rank-error bound ε(q): the
// value Quantile(q) returns lies between the stream's exact quantiles
// at ranks q−ε and q+ε. A centroid at q holds at most one k-unit of
// mass, ≈ 2π·√(q·(1−q))·N/Compression observations, and the centering
// assumption can be off by half of that; the documented bound doubles
// the structural π·√(q(1−q))/Compression to absorb merge drift, plus
// one observation of discreteness slack. It shrinks toward the tails;
// typical error is several times smaller still. Tests and the
// ingested-vs-offline verifier both consume this bound, so loosening it
// is a visible contract change.
func (s *Sketch) QuantileErrorBound(q float64) float64 {
	s.normalize()
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	eps := 2 * math.Pi * math.Sqrt(q*(1-q)) / s.Compression
	if s.Count > 0 {
		eps += 1 / float64(s.Count)
	}
	return eps
}

// maxCentroids is the validation cap on the centroid list for a given
// compression. The structural bound is ~compression+2 at any stream
// length (adjacent kept centroids jointly span more than one k-unit of
// the compression/2 total); the cap adds a little slack for rounding
// at the k-scale extremes so a legitimate encoder is never rejected,
// and anything past it is a malformed or hostile wire sketch.
func maxCentroids(compression float64) int {
	return int(compression) + 16
}

// Valid rejects sketches that would poison aggregates when merged —
// the wire-facing checks a server runs on device-posted summaries.
func (s *Sketch) Valid() error {
	if math.IsNaN(s.Compression) || s.Compression < MinSketchCompression || s.Compression > MaxSketchCompression {
		return fmt.Errorf("agg: sketch compression %v outside [%d,%d]",
			s.Compression, MinSketchCompression, MaxSketchCompression)
	}
	if s.Count < 0 {
		return fmt.Errorf("agg: sketch count %d negative", s.Count)
	}
	if len(s.Centroids) > maxCentroids(s.Compression) {
		return fmt.Errorf("agg: sketch has %d centroids, cap %d for compression %g",
			len(s.Centroids), maxCentroids(s.Compression), s.Compression)
	}
	var sum int64
	prev := math.Inf(-1)
	for i, c := range s.Centroids {
		if c.Weight < 1 || c.Weight > s.Count {
			return fmt.Errorf("agg: sketch centroid %d weight %d outside [1,%d]", i, c.Weight, s.Count)
		}
		if math.IsNaN(c.Mean) || math.IsInf(c.Mean, 0) {
			return fmt.Errorf("agg: sketch centroid %d has non-finite mean", i)
		}
		if c.Mean < prev {
			return fmt.Errorf("agg: sketch centroids not sorted at %d", i)
		}
		prev = c.Mean
		sum += c.Weight
		// Each weight is bounded by Count above, so the running sum can
		// overflow at most once per step — going negative or past Count —
		// before the final equality check; catching it here keeps a
		// hostile wire sketch from wrapping the sum back to a plausible
		// total.
		if sum < 0 || sum > s.Count {
			return fmt.Errorf("agg: sketch centroid weights exceed count %d", s.Count)
		}
	}
	// Pending centroids came from sketches that were valid when merged,
	// so only their weights need counting.
	sum += int64(len(s.buf))
	for _, c := range s.pend {
		sum += c.Weight
	}
	if sum != s.Count {
		return fmt.Errorf("agg: sketch count %d != centroid weight sum %d", s.Count, sum)
	}
	if s.Count > 0 {
		if math.IsNaN(s.MinV) || math.IsInf(s.MinV, 0) || math.IsNaN(s.MaxV) || math.IsInf(s.MaxV, 0) {
			return errors.New("agg: sketch min/max not finite")
		}
		if s.MinV > s.MaxV {
			return fmt.Errorf("agg: sketch min %v above max %v", s.MinV, s.MaxV)
		}
		if len(s.Centroids) > 0 &&
			(s.Centroids[0].Mean < s.MinV || s.Centroids[len(s.Centroids)-1].Mean > s.MaxV) {
			return errors.New("agg: sketch centroid means outside [min,max]")
		}
	}
	return nil
}

// sketchWire is the JSON shape; the buffer and pending merges are
// always flushed into centroids before encoding, so the wire form is
// canonical.
type sketchWire struct {
	Compression float64    `json:"compression"`
	Count       int64      `json:"count"`
	Min         float64    `json:"min"`
	Max         float64    `json:"max"`
	Centroids   []Centroid `json:"centroids,omitempty"`
}

// MarshalJSON flushes and encodes the canonical form.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	s.Flush()
	return json.Marshal(sketchWire{
		Compression: s.Compression,
		Count:       s.Count,
		Min:         s.MinV,
		Max:         s.MaxV,
		Centroids:   s.Centroids,
	})
}

// UnmarshalJSON decodes the canonical form.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var w sketchWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Sketch{
		Compression: w.Compression,
		Count:       w.Count,
		MinV:        w.Min,
		MaxV:        w.Max,
		Centroids:   w.Centroids,
	}
	return nil
}
