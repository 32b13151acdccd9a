package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestMeanMinMax(t *testing.T) {
	s := Sample{ms(1), ms(2), ms(3), ms(4)}
	if got := s.Mean(); got != ms(2.5) {
		t.Errorf("Mean = %v, want 2.5ms", got)
	}
	if got := s.Min(); got != ms(1) {
		t.Errorf("Min = %v, want 1ms", got)
	}
	if got := s.Max(); got != ms(4) {
		t.Errorf("Max = %v, want 4ms", got)
	}
}

func TestEmptySampleIsSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample statistics should all be zero")
	}
	b := s.Box()
	if b.N != 0 {
		t.Fatal("empty box should have N=0")
	}
	e := NewECDF(s)
	if e.N() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty ECDF should be 0 everywhere")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Sample{ms(10), ms(20), ms(30), ms(40)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, ms(10)},
		{100, ms(40)},
		{50, ms(25)},
		{25, ms(17.5)},
		{75, ms(32.5)},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := Sample{ms(3), ms(1), ms(2)}
	if got := odd.Median(); got != ms(2) {
		t.Errorf("odd median = %v, want 2ms", got)
	}
	even := Sample{ms(4), ms(1), ms(3), ms(2)}
	if got := even.Median(); got != ms(2.5) {
		t.Errorf("even median = %v, want 2.5ms", got)
	}
}

func TestVarianceStddev(t *testing.T) {
	s := Sample{ms(2), ms(4), ms(4), ms(4), ms(5), ms(5), ms(7), ms(9)}
	// Known population variance is 4ms²; sample (n-1) variance is 32/7 ms².
	wantVar := 32.0 / 7.0 * 1e12 // ns²
	if got := s.Variance(); math.Abs(got-wantVar)/wantVar > 1e-9 {
		t.Errorf("Variance = %g, want %g", got, wantVar)
	}
}

func TestCI95AgainstKnownValue(t *testing.T) {
	// n=4, values 10,20,30,40ms: sd = 12.909ms, se = 6.455ms,
	// t(3) = 3.182 => CI = 20.54ms.
	s := Sample{ms(10), ms(20), ms(30), ms(40)}
	got := Millis(s.CI95())
	if math.Abs(got-20.54) > 0.05 {
		t.Errorf("CI95 = %.3fms, want ≈20.54ms", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int) Sample {
		s := make(Sample, n)
		for i := range s {
			s[i] = ms(30 + rng.NormFloat64()*3)
		}
		return s
	}
	small, big := gen(10).CI95(), gen(1000).CI95()
	if big >= small {
		t.Errorf("CI95 should shrink with n: n=10 %v, n=1000 %v", small, big)
	}
}

func TestBoxplotQuartilesAndOutliers(t *testing.T) {
	s := Sample{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(100)}
	b := s.Box()
	if len(b.Outliers) != 1 || b.Outliers[0] != ms(100) {
		t.Fatalf("outliers = %v, want [100ms]", b.Outliers)
	}
	if b.WhiskerHi != ms(7) {
		t.Errorf("whisker hi = %v, want 7ms", b.WhiskerHi)
	}
	if b.WhiskerLo != ms(1) {
		t.Errorf("whisker lo = %v, want 1ms", b.WhiskerLo)
	}
	if !(b.Q1 < b.Median && b.Median < b.Q3) {
		t.Errorf("quartile ordering violated: %v", b)
	}
}

func TestBoxplotNoOutliers(t *testing.T) {
	s := Sample{ms(10), ms(11), ms(12), ms(13)}
	b := s.Box()
	if len(b.Outliers) != 0 {
		t.Fatalf("unexpected outliers: %v", b.Outliers)
	}
	if b.WhiskerLo != ms(10) || b.WhiskerHi != ms(13) {
		t.Errorf("whiskers = [%v,%v], want [10ms,13ms]", b.WhiskerLo, b.WhiskerHi)
	}
}

// TestECDFStep: the ECDF of {10,20,20,30} steps to 0.25, 0.75 and 1 at
// 10, 20 and 30 ms (the tie counts twice), so its inverse jumps exactly
// past those levels.
func TestECDFStep(t *testing.T) {
	s := Sample{ms(10), ms(20), ms(20), ms(30)}
	e := NewECDF(s)
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.01, ms(10)},
		{0.25, ms(10)},
		{0.26, ms(20)},
		{0.75, ms(20)},
		{0.76, ms(30)},
		{1, ms(30)},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	s := Sample{ms(10), ms(20), ms(30), ms(40)}
	e := NewECDF(s)
	if got := e.Quantile(0.5); got != ms(20) {
		t.Errorf("Quantile(0.5) = %v, want 20ms", got)
	}
	if got := e.Quantile(0.9); got != ms(40) {
		t.Errorf("Quantile(0.9) = %v, want 40ms", got)
	}
	if got := e.Quantile(0); got != ms(10) {
		t.Errorf("Quantile(0) = %v, want 10ms", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Sample{ms(1), ms(2), ms(3)}
	str := s.Summarize().String()
	if str == "" {
		t.Fatal("summary string empty")
	}
}

func TestTCritical95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 500; df++ {
		v := tCritical95(df)
		if v > prev+1e-9 {
			t.Fatalf("t-critical increased at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if v := tCritical95(1_000_000); math.Abs(v-1.96) > 1e-9 {
		t.Errorf("large-df critical = %v, want 1.96", v)
	}
}

// Property: percentiles are monotone in p and bounded by [Min, Max].
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Sample, len(raw))
		for i, v := range raw {
			s[i] = time.Duration(v)
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ECDF is monotone non-decreasing and hits 1 at the max
// sample: its inverse never decreases in q and reaches the max at q=1.
func TestQuickECDFMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Sample, len(raw))
		for i, v := range raw {
			s[i] = time.Duration(v) * time.Microsecond
		}
		e := NewECDF(s)
		prev := time.Duration(-1)
		for q := 0.0; q <= 1; q += 0.01 {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return e.Quantile(1) == s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: box plot invariants — ordering of the five numbers and every
// outlier lies outside the whiskers.
func TestQuickBoxplotInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		s := make(Sample, len(raw))
		for i, v := range raw {
			s[i] = time.Duration(v) * time.Microsecond
		}
		b := s.Box()
		// The whiskers are actual sample values within the fences, so they
		// can land inside the interpolated quartiles; the robust invariants
		// are quartile ordering and whisker ordering.
		if !(b.Q1 <= b.Median && b.Median <= b.Q3) {
			return false
		}
		if b.WhiskerLo > b.WhiskerHi {
			return false
		}
		for _, o := range b.Outliers {
			if o >= b.WhiskerLo && o <= b.WhiskerHi {
				return false
			}
		}
		return len(b.Outliers) < len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
