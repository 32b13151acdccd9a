package agg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wirebuf"
)

// A Hist stores only the span of bins it has touched. These tests pin
// it against denseHist, a reference model that keeps every bin in a
// plain array and runs the straightforward loops over all of them: for
// every way a Hist is built or changed, N, every bin, Quantile and the
// JSON bytes must match the model's.

// denseHist is the reference model: the geometry's full bin array.
type denseHist struct {
	counts      []int64
	under, over int64
}

func newDense() *denseHist {
	return &denseHist{counts: make([]int64, DurationHistBins)}
}

func (d *denseHist) clone() *denseHist {
	c := *d
	c.counts = append([]int64{}, d.counts...)
	return &c
}

func (d *denseHist) addN(x time.Duration, n int64) {
	if n <= 0 {
		return
	}
	switch {
	case x < DurationHistLo:
		d.under += n
	case x >= DurationHistHi:
		d.over += n
	default:
		i := int(int64(x-DurationHistLo) * int64(len(d.counts)) / int64(DurationHistHi-DurationHistLo))
		if i >= len(d.counts) {
			i = len(d.counts) - 1
		}
		d.counts[i] += n
	}
}

func (d *denseHist) merge(o *denseHist) {
	d.under += o.under
	d.over += o.over
	for i, c := range o.counts {
		d.counts[i] += c
	}
}

func (d *denseHist) reset() {
	clear(d.counts)
	d.under, d.over = 0, 0
}

func (d *denseHist) n() int64 {
	n := d.under + d.over
	for _, c := range d.counts {
		n += c
	}
	return n
}

func (d *denseHist) quantile(q float64) time.Duration {
	n := d.n()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := d.under
	if cum >= target {
		return DurationHistLo
	}
	width := float64(DurationHistHi-DurationHistLo) / float64(len(d.counts))
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := float64(target-cum) / float64(c)
			return DurationHistLo + time.Duration((float64(i)+frac)*width)
		}
		cum += c
	}
	return DurationHistHi
}

// json is the wire form as encoding/json writes a dense struct.
func (d *denseHist) json() []byte {
	b, err := json.Marshal(struct {
		Lo     time.Duration `json:"lo_ns"`
		Hi     time.Duration `json:"hi_ns"`
		Counts []int64       `json:"counts"`
		Under  int64         `json:"under"`
		Over   int64         `json:"over"`
	}{DurationHistLo, DurationHistHi, d.counts, d.under, d.over})
	if err != nil {
		panic(err)
	}
	return b
}

var checkQs = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}

// checkDense asserts that h answers exactly like its model and that
// its stored span lies inside the geometry.
func checkDense(t testing.TB, what string, h *Hist, d *denseHist) {
	t.Helper()
	base, span := h.Span()
	if len(span) > 0 && (base < 0 || base+len(span) > h.Bins()) {
		t.Fatalf("%s: span [%d,%d) outside %d bins", what, base, base+len(span), h.Bins())
	}
	if cap(span) > h.Bins() {
		t.Fatalf("%s: capacity %d exceeds the geometry's %d bins", what, cap(span), h.Bins())
	}
	if h.Bins() != len(d.counts) || h.Under != d.under || h.Over != d.over {
		t.Fatalf("%s: bin count or out-of-range mass diverges", what)
	}
	for i, c := range d.counts {
		if got := h.Count(i); got != c {
			t.Fatalf("%s: bin %d = %d, dense %d", what, i, got, c)
		}
	}
	if got, want := h.N(), d.n(); got != want {
		t.Fatalf("%s: N = %d, dense %d", what, got, want)
	}
	for _, q := range checkQs {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, dense %v", what, q, got, want)
		}
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.json(); !bytes.Equal(got, want) {
		t.Fatalf("%s: JSON diverges from dense:\n got %.200s\nwant %.200s", what, got, want)
	}
}

// randomHist builds a standard-geometry Hist and its model one of six
// ways: by Add, AddN or AddMulti; JSON decoded into a used or a fresh
// Hist; or bin by bin through setCount, as the binary decoder does.
// Values are sparse — a few bins, sometimes none, and sometimes only
// out-of-range mass — and land anywhere in the geometry, so merged
// spans straddle each other.
func randomHist(rng *rand.Rand) (*Hist, *denseHist, string) {
	src, d := NewDurationHist(), newDense()
	for n := rng.Intn(6); n > 0; n-- {
		x := time.Duration(rng.Int63n(int64(520*time.Millisecond))) - 10*time.Millisecond
		switch rng.Intn(3) {
		case 0:
			src.Add(x)
			d.addN(x, 1)
		case 1:
			k := 1 + rng.Int63n(5)
			src.AddN(x, k)
			d.addN(x, k)
		default:
			y := x + time.Duration(rng.Int63n(int64(time.Millisecond)))
			src.AddMulti([]time.Duration{x, y})
			d.addN(x, 1)
			d.addN(y, 1)
		}
	}
	switch rng.Intn(4) {
	case 0:
		return src, d, "added"
	case 1:
		// Decode into a Hist that already holds other bins: none of
		// them may survive.
		h := NewDurationHist()
		h.AddMulti([]time.Duration{0, 250 * time.Millisecond, DurationHistHi - 1, -1})
		if err := json.Unmarshal(d.json(), h); err != nil {
			panic(err)
		}
		return h, d, "json-used"
	case 2:
		var h Hist
		if err := json.Unmarshal(d.json(), &h); err != nil {
			panic(err)
		}
		return &h, d, "json-fresh"
	default:
		h := NewDurationHist()
		h.Under, h.Over = d.under, d.over
		for _, i := range rng.Perm(len(d.counts)) {
			if c := d.counts[i]; c != 0 {
				h.setCount(i, c)
			}
		}
		return h, d, "setcount"
	}
}

func TestHistBoundMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		// Fold a random chain of Hists into one accumulator, merging in
		// both directions (acc into a fresh Hist, and a fresh Hist into
		// acc), with the model updated alongside.
		acc, ref, kind := randomHist(rng)
		checkDense(t, kind, acc, ref)
		for step := rng.Intn(4); step >= 0; step-- {
			o, oref, okind := randomHist(rng)
			if rng.Intn(2) == 0 {
				acc.Merge(o)
				ref.merge(oref)
			} else {
				o.Merge(acc)
				oref.merge(ref)
				acc, ref = o, oref
			}
			kind += "+" + okind
			checkDense(t, kind, acc, ref)
		}
		// A clone answers like its source and stays independent of it
		// in both directions.
		c, cref := acc.Clone(), ref.clone()
		checkDense(t, kind+" clone", c, cref)
		c.Add(499 * time.Millisecond)
		cref.addN(499*time.Millisecond, 1)
		acc.Add(time.Millisecond)
		ref.addN(time.Millisecond, 1)
		checkDense(t, kind+" clone after write", c, cref)
		checkDense(t, kind+" source after clone write", acc, ref)
	}
}

// TestHistResetReuse: Reset keeps the backing array, so a recycled
// Hist refills without allocating, and no bin of its previous life
// reappears — whichever side the new span grows toward.
func TestHistResetReuse(t *testing.T) {
	h, d := NewDurationHist(), newDense()
	for i := 0; i < DurationHistBins; i += 7 {
		x := time.Duration(i) * h.BucketWidth()
		h.AddN(x, int64(i+1))
		d.addN(x, int64(i+1))
	}
	checkDense(t, "wide", h, d)
	_, span := h.Span()
	wideCap := cap(span)
	h.Reset()
	d.reset()
	checkDense(t, "reset", h, d)
	if _, span := h.Span(); cap(span) != wideCap {
		t.Fatalf("Reset dropped the backing array: cap %d, was %d", cap(span), wideCap)
	}
	// Grow downward from the middle, then upward, then merge a span
	// straddling both ends: every newly exposed bin must read zero.
	ms := []time.Duration{300, 299, 120, 410, 5, 499}
	runs := int64(0) // AllocsPerRun adds a warm-up run
	allocs := testing.AllocsPerRun(1, func() {
		runs++
		for _, m := range ms {
			h.Add(m * time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset Hist allocated %v times", allocs)
	}
	fresh := NewDurationHist()
	for _, m := range ms {
		d.addN(m*time.Millisecond, runs)
		fresh.AddN(m*time.Millisecond, runs)
	}
	checkDense(t, "refilled", h, d)
	fb, fs := fresh.Span()
	hb, hs := h.Span()
	if fb != hb || len(fs) != len(hs) {
		t.Fatalf("reset Hist grew to [%d,+%d), a new one to [%d,+%d)", hb, len(hs), fb, len(fs))
	}
}

// TestHistZeroValue: a zero-value Hist is an empty duration histogram.
// It answers like NewDurationHist's, bins what it folds, and merges
// with a zero Hist and with NewDurationHist's in either direction.
func TestHistZeroValue(t *testing.T) {
	var h Hist
	d := newDense()
	checkDense(t, "zero", &h, d)
	h.Merge(&Hist{})
	h.AddMulti([]time.Duration{-1, 0, time.Second, 40 * time.Millisecond})
	h.Add(-time.Second)
	for _, x := range []time.Duration{-1, 0, time.Second, 40 * time.Millisecond, -time.Second} {
		d.addN(x, 1)
	}
	checkDense(t, "zero after adds", &h, d)
	other, od := NewDurationHist(), newDense()
	other.Add(499 * time.Millisecond)
	od.addN(499*time.Millisecond, 1)
	h.Merge(other)
	d.merge(od)
	checkDense(t, "zero merged a new Hist", &h, d)
	fresh := NewDurationHist()
	fresh.Merge(&h)
	checkDense(t, "new Hist merged the zero one", fresh, d)
	c := h.Clone()
	checkDense(t, "zero clone", c, d)
	h.Reset()
	checkDense(t, "zero reset", &h, newDense())
}

// TestHistSetCountZero: writing zero outside the span stores nothing,
// and writing zero inside it clears the bin.
func TestHistSetCountZero(t *testing.T) {
	h, d := NewDurationHist(), newDense()
	h.setCount(10, 0)
	if _, span := h.Span(); span != nil {
		t.Fatalf("setCount(_, 0) on an empty Hist stored %d bins", len(span))
	}
	h.setCount(10, 4)
	h.setCount(12, 2)
	h.setCount(10, 0)
	d.counts[12] = 2
	checkDense(t, "setcount", h, d)
}

// TestHistJSONRejectsBadGeometry: a decoded geometry other than the
// duration hist's — including ranges no duration can map into a bin —
// is refused at the wire; the zero value's wire form still decodes.
func TestHistJSONRejectsBadGeometry(t *testing.T) {
	for _, in := range []string{
		`{"lo_ns":0,"hi_ns":500000000,"counts":[],"under":0,"over":0}`,
		`{"lo_ns":0,"hi_ns":500000000,"under":1}`,
		`{"lo_ns":-9000000000000000000,"hi_ns":9000000000000000000,"counts":[0,0]}`,
		`{"lo_ns":0,"hi_ns":9000000000000000000,"counts":[0,0,0]}`,
		`{"lo_ns":0,"hi_ns":0,"counts":null,"under":0,"over":0}`,
	} {
		var h Hist
		if err := json.Unmarshal([]byte(in), &h); err == nil {
			t.Errorf("%s decoded", in)
		}
	}
	zero, err := json.Marshal(&Hist{})
	if err != nil {
		t.Fatal(err)
	}
	var h Hist
	if err := json.Unmarshal(zero, &h); err != nil {
		t.Fatalf("zero Hist wire form %s refused: %v", zero, err)
	}
	checkDense(t, "zero round trip", &h, newDense())
}

// TestDecodedHistMergesLikeDense: the binary decoder rebuilds
// histograms bin by bin through setCount, which grows the stored span
// the Merge/N/Quantile loops walk. A decoded Hist merged in either
// direction with a Hist written bin by bin across the whole geometry
// must give exactly the dense result.
func TestDecodedHistMergesLikeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	denseCounts := func(h *Hist) []int64 {
		out := make([]int64, h.Bins())
		for i := range out {
			out[i] = h.Count(i)
		}
		return out
	}
	dense := func(h *Hist) *Hist {
		d := NewDurationHist()
		d.Under, d.Over = h.Under, h.Over
		for i := 0; i < h.Bins(); i++ {
			d.setCount(i, h.Count(i))
		}
		return d
	}
	random := func() *Hist {
		h := NewDurationHist()
		for n := rng.Intn(5); n > 0; n-- {
			h.AddN(time.Duration(rng.Int63n(int64(510*time.Millisecond)))-5*time.Millisecond, 1+rng.Int63n(3))
		}
		return h
	}
	for trial := 0; trial < 500; trial++ {
		a, b := random(), random()
		dec := NewDurationHist()
		cur := wirebuf.NewCursor(a.AppendBinary(nil))
		if err := dec.ReadBinary(&cur); err != nil {
			t.Fatal(err)
		}
		if cur.Remaining() != 0 {
			t.Fatalf("trial %d: %d bytes left after the hist", trial, cur.Remaining())
		}
		want := dense(a)
		for i := 0; i < b.Bins(); i++ {
			want.setCount(i, want.Count(i)+b.Count(i))
		}
		want.Under += b.Under
		want.Over += b.Over

		into := dense(b) // decoded merged into a dense Hist
		into.Merge(dec)
		from := dec.Clone() // a dense Hist merged into the decoded one
		from.Merge(dense(b))
		for _, got := range []*Hist{into, from} {
			if fmt.Sprint(denseCounts(got), got.Under, got.Over) != fmt.Sprint(denseCounts(want), want.Under, want.Over) {
				t.Fatalf("trial %d: merged counts diverge from dense", trial)
			}
			if got.N() != want.N() {
				t.Fatalf("trial %d: N = %d, want %d", trial, got.N(), want.N())
			}
			for _, q := range []float64{0.01, 0.5, 0.99} {
				if got.Quantile(q) != want.Quantile(q) {
					t.Fatalf("trial %d: Quantile(%v) = %v, want %v", trial, q, got.Quantile(q), want.Quantile(q))
				}
			}
		}
		if dec.N() != a.N() || dec.Quantile(0.5) != a.Quantile(0.5) {
			t.Fatalf("trial %d: decoded hist answers differently from its source", trial)
		}
	}
}

// TestHistBinaryRefusesForeignGeometry: the decoder accepts only the
// duration geometry and refuses any other before it stores a bin — a
// hostile bin count cannot size the span — while truncated and
// out-of-order forms fail cleanly.
func TestHistBinaryRefusesForeignGeometry(t *testing.T) {
	src := NewDurationHist()
	src.AddMulti([]time.Duration{time.Millisecond, 40 * time.Millisecond, 2 * time.Second})
	valid := src.AppendBinary(nil)
	// foreign hand-encodes a form of geometry [lo,hi)/bins holding one
	// count of 5 in its last bin and one in Over.
	foreign := func(lo, hi time.Duration, bins uint64) []byte {
		b := binary.AppendUvarint(nil, wirebuf.Zigzag(int64(lo)))
		b = binary.AppendUvarint(b, wirebuf.Zigzag(int64(hi)))
		b = binary.AppendUvarint(b, bins)
		b = append(b, 0, 1, 1) // under, over, one nonzero bin
		b = binary.AppendUvarint(b, bins-1)
		return append(b, 5)
	}
	for name, hostile := range map[string][]byte{
		"bins-1<<30": foreign(DurationHistLo, DurationHistHi, 1<<30),
		"bins-999":   foreign(DurationHistLo, DurationHistHi, DurationHistBins-1),
		"hi":         foreign(DurationHistLo, time.Second, DurationHistBins),
		"lo":         foreign(-time.Millisecond, DurationHistHi, DurationHistBins),
	} {
		dst := NewDurationHist()
		dst.Add(time.Millisecond)
		cur := wirebuf.NewCursor(hostile)
		if err := dst.ReadBinary(&cur); err == nil {
			t.Errorf("%s: hostile encoded geometry accepted", name)
		}
		if base, span := dst.Span(); len(span) != 1 || base != 2 || dst.N() != 1 {
			t.Errorf("%s: refused decode changed the receiver: span [%d,+%d), N %d", name, base, len(span), dst.N())
		}
	}
	// The same hand encoder, given the duration geometry, writes a form
	// the decoder accepts: the refusals above are the geometry's alone.
	dst := NewDurationHist()
	cur := wirebuf.NewCursor(foreign(DurationHistLo, DurationHistHi, DurationHistBins))
	if err := dst.ReadBinary(&cur); err != nil || dst.Count(DurationHistBins-1) != 5 || dst.Over != 1 {
		t.Fatalf("duration geometry refused (%v) or misread", err)
	}
	for i := 0; i < len(valid); i++ {
		cur := wirebuf.NewCursor(valid[:i])
		if err := NewDurationHist().ReadBinary(&cur); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", i, len(valid))
		}
	}
}

// TestHistReadBinarySizesSpanOnce pins the decode's allocation: a wide
// sparse histogram read into a reset Hist with no spare capacity (a
// freshly minted cell's) sizes its span once, to exactly the first to
// last encoded bin, instead of regrowing per doubling.
func TestHistReadBinarySizesSpanOnce(t *testing.T) {
	src := NewDurationHist()
	for i := 3; i < src.Bins()-2; i += 7 {
		src.setCount(i, int64(i))
	}
	frame := src.AppendBinary(nil)
	h := NewDurationHist()
	allocs := testing.AllocsPerRun(20, func() {
		h.Reset()
		h.counts = nil
		cur := wirebuf.NewCursor(frame)
		if err := h.ReadBinary(&cur); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ReadBinary of a wide sparse histogram: %.0f allocs, want at most 1", allocs)
	}
	srcBase, srcSpan := src.Span()
	base, span := h.Span()
	first, last := srcBase, srcBase+len(srcSpan)-1
	for src.Count(first) == 0 {
		first++
	}
	for src.Count(last) == 0 {
		last--
	}
	if base != first || len(span) != last-first+1 {
		t.Errorf("decoded span [%d,%d), want [%d,%d]", base, base+len(span), first, last)
	}
	for i := 0; i < src.Bins(); i++ {
		if h.Count(i) != src.Count(i) {
			t.Fatalf("bin %d: decoded %d, want %d", i, h.Count(i), src.Count(i))
		}
	}
}

// setCount overwrites bin i's count, growing the span like a write
// would; the tests' way to build a Hist bin by bin. It panics if i is
// outside the geometry.
func (h *Hist) setCount(i int, c int64) {
	if uint(i) >= DurationHistBins {
		panic(fmt.Sprintf("agg: setCount bin %d outside [0,%d)", i, DurationHistBins))
	}
	j := i - h.base
	if uint(j) >= uint(len(h.counts)) {
		if c == 0 {
			return
		}
		h.grow(i, i+1)
		j = i - h.base
	}
	h.counts[j] = c
}
