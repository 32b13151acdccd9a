// Package stats provides the descriptive statistics used throughout the
// paper's evaluation: means with 95% confidence intervals (the format of
// Tables 2 and 5), box-plot five-number summaries with 1.5·IQR whiskers
// (Figures 3 and 7), and empirical CDFs (Figures 8 and 9).
//
// All entry points accept time.Duration samples, the unit every layer of
// the simulation reports, and never mutate their input.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is a collection of duration observations.
type Sample []time.Duration

// Millis converts a duration to float milliseconds, the unit used in the
// paper's tables.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s Sample) sorted() Sample {
	c := make(Sample, len(s))
	copy(c, s)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// Mean returns the arithmetic mean; zero for an empty sample.
func (s Sample) Mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var acc float64
	for _, v := range s {
		acc += float64(v)
	}
	return time.Duration(acc / float64(len(s)))
}

// Min returns the smallest observation; zero for an empty sample.
func (s Sample) Min() time.Duration {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation; zero for an empty sample.
func (s Sample) Max() time.Duration {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Variance returns the unbiased sample variance in ns².
func (s Sample) Variance() float64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s {
		d := float64(v) - mean
		acc += d * d
	}
	return acc / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s Sample) Stddev() time.Duration {
	return time.Duration(math.Sqrt(s.Variance()))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks (the "type 7" estimator used by R
// and NumPy's default).
func (s Sample) Percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sorted().percentileSorted(p)
}

// percentileSorted is Percentile over an already-sorted receiver, so
// multi-percentile callers (Summarize, Box) sort once and derive every
// order statistic from the same copy.
func (s Sample) percentileSorted(p float64) time.Duration {
	n := len(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// Median returns the 50th percentile.
func (s Sample) Median() time.Duration { return s.Percentile(50) }

// CI95 returns the half-width of the 95% confidence interval of the mean
// (mean ± CI95), using the Student-t critical value for the sample size.
// This is the "±" figure printed in the paper's Tables 2 and 5.
func (s Sample) CI95() time.Duration {
	n := len(s)
	if n < 2 {
		return 0
	}
	se := math.Sqrt(s.Variance() / float64(n))
	return time.Duration(tCritical95(n-1) * se)
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom, via a table for small df and the normal
// approximation beyond.
func tCritical95(df int) float64 {
	table := []float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// Summary bundles the headline statistics of a sample.
type Summary struct {
	N      int
	Mean   time.Duration
	CI95   time.Duration
	Min    time.Duration
	Median time.Duration
	Max    time.Duration
	Stddev time.Duration
	P25    time.Duration
	P75    time.Duration
	P90    time.Duration
	P99    time.Duration
}

// Summarize computes a Summary over a single sorted copy: every order
// statistic derives from the same sort, and mean/variance are computed
// once and shared by Stddev and CI95. (It once re-sorted per
// percentile — five full sorts per summary on the per-session hot
// path.)
func (s Sample) Summarize() Summary {
	n := len(s)
	if n == 0 {
		return Summary{}
	}
	c := s.sorted()
	var sum float64
	for _, v := range c {
		sum += float64(v)
	}
	mean := sum / float64(n)
	var variance float64
	if n >= 2 {
		var m2 float64
		for _, v := range c {
			d := float64(v) - mean
			m2 += d * d
		}
		variance = m2 / float64(n-1)
	}
	sm := Summary{
		N:      n,
		Mean:   time.Duration(mean),
		Min:    c[0],
		Max:    c[n-1],
		Stddev: time.Duration(math.Sqrt(variance)),
		Median: c.percentileSorted(50),
		P25:    c.percentileSorted(25),
		P75:    c.percentileSorted(75),
		P90:    c.percentileSorted(90),
		P99:    c.percentileSorted(99),
	}
	if n >= 2 {
		se := math.Sqrt(variance / float64(n))
		sm.CI95 = time.Duration(tCritical95(n-1) * se)
	}
	return sm
}

// String renders the summary in ms, the paper's unit.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms ±%.3f median=%.3fms [%.3f..%.3f]",
		sm.N, Millis(sm.Mean), Millis(sm.CI95), Millis(sm.Median), Millis(sm.Min), Millis(sm.Max))
}

// Boxplot is the five-number summary with Tukey whiskers used by the
// paper's Figures 3 and 7: the whiskers are the most extreme samples
// within 1.5·IQR of the quartiles, values beyond them are outliers.
type Boxplot struct {
	Q1, Median, Q3       time.Duration
	WhiskerLo, WhiskerHi time.Duration
	Outliers             Sample
	N                    int
}

// Box computes the box-and-whisker statistics of the sample.
func (s Sample) Box() Boxplot {
	b := Boxplot{N: len(s)}
	if len(s) == 0 {
		return b
	}
	c := s.sorted()
	b.Q1 = c.percentileSorted(25)
	b.Median = c.percentileSorted(50)
	b.Q3 = c.percentileSorted(75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - time.Duration(1.5*float64(iqr))
	hiFence := b.Q3 + time.Duration(1.5*float64(iqr))
	b.WhiskerLo = b.Q3 // start high, walk down
	b.WhiskerHi = b.Q1
	first := true
	for _, v := range c {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if first {
			b.WhiskerLo = v
			first = false
		}
		b.WhiskerHi = v
	}
	if first { // everything was an outlier; degenerate but defined
		b.WhiskerLo, b.WhiskerHi = b.Median, b.Median
	}
	return b
}

// String renders the box stats in ms.
func (b Boxplot) String() string {
	return fmt.Sprintf("box{lo=%.2f q1=%.2f med=%.2f q3=%.2f hi=%.2f out=%d}",
		Millis(b.WhiskerLo), Millis(b.Q1), Millis(b.Median), Millis(b.Q3), Millis(b.WhiskerHi), len(b.Outliers))
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted Sample
}

// NewECDF builds an ECDF over the sample.
func NewECDF(s Sample) *ECDF { return &ECDF{sorted: s.sorted()} }

// Quantile returns the smallest sample value v with P(X <= v) >= q.
func (e *ECDF) Quantile(q float64) time.Duration {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return e.sorted[idx]
}

// N returns the number of samples backing the ECDF.
func (e *ECDF) N() int { return len(e.sorted) }
