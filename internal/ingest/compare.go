package ingest

import (
	"fmt"
	"math"

	"repro/internal/fleet"
)

// meanRelTolerance bounds the acceptable relative drift between the
// ingested and offline mean: worker-local fold order varies, so moment
// statistics agree only up to float accumulation rounding.
const meanRelTolerance = 1e-9

// VerifyAgainstReport checks the store's per-group rollup against an
// offline fleet campaign report — the subsystem's determinism contract:
// session/probe/sample counts and histograms (hence histogram
// quantiles) must be exact, means within float accumulation rounding,
// and sketch-backed percentiles within the sketches' combined
// documented rank-error bound (fold order differs between the two
// runs, so centroids legitimately differ). It is the single
// checker behind both the acceptance test and the CLI's "verified"
// claim, so the two can never drift apart. Returns human-readable
// mismatches (empty slice = the aggregates agree) plus the largest
// relative mean drift observed. It takes the GroupQuerier slice of the
// store, so a clustered node's fleet view (Server.Fleet) verifies
// against a campaign report exactly like a single store.
func VerifyAgainstReport(st GroupQuerier, rep *fleet.Report) (mismatches []string, maxMeanRel float64) {
	add := func(format string, args ...any) {
		mismatches = append(mismatches, fmt.Sprintf(format, args...))
	}
	cells, err := st.Query(RollupGroup)
	if err != nil {
		add("query: %v", err)
		return mismatches, 0
	}
	byLabel := map[string]*Cell{}
	for _, c := range cells {
		byLabel[c.Key.Group] = c
	}
	// Crashed phones report nothing, so a group whose sessions all
	// errored legitimately has no ingest cell at all.
	expectedGroups := 0
	for _, g := range rep.Groups {
		if g.Sessions-g.Errors > 0 {
			expectedGroups++
		}
	}
	if len(cells) != expectedGroups {
		add("%d ingested groups != %d reporting offline groups", len(cells), expectedGroups)
	}
	for _, g := range rep.Groups {
		okSessions := g.Sessions - g.Errors
		c := byLabel[g.Label]
		if c == nil {
			if okSessions > 0 {
				add("%s: group missing from ingested aggregates", g.Label)
			}
			continue
		}
		if c.Sessions != okSessions || c.ProbesSent != g.ProbesSent ||
			c.ProbesLost != g.ProbesLost || c.BackgroundSent != g.BackgroundSent {
			add("%s: sessions/probes (%d,%d,%d,%d) != offline (%d,%d,%d,%d)", g.Label,
				c.Sessions, c.ProbesSent, c.ProbesLost, c.BackgroundSent,
				okSessions, g.ProbesSent, g.ProbesLost, g.BackgroundSent)
		}
		if c.Raw.N != g.Du.N {
			add("%s: raw sample count %d != %d", g.Label, c.Raw.N, g.Du.N)
		}
		if c.Punctured.N != c.Raw.N {
			add("%s: punctured sample count %d != raw %d", g.Label, c.Punctured.N, c.Raw.N)
		}
		if g.Du.N > 0 {
			rel := math.Abs(c.Raw.Mean-g.Du.Mean) / g.Du.Mean
			if rel > maxMeanRel {
				maxMeanRel = rel
			}
			if rel > meanRelTolerance {
				add("%s: raw mean %.6f ms != offline %.6f ms (rel %.2g)",
					g.Label, c.Raw.Mean/1e6, g.Du.Mean/1e6, rel)
			}
			if c.Raw.MinV != g.Du.MinV || c.Raw.MaxV != g.Du.MaxV {
				add("%s: raw min/max (%v,%v) != offline (%v,%v)",
					g.Label, c.Raw.MinV, c.Raw.MaxV, g.Du.MinV, g.Du.MaxV)
			}
		}
		if c.RawHist.Under != g.DuHist.Under || c.RawHist.Over != g.DuHist.Over {
			add("%s: histogram out-of-range mass (%d,%d) != offline (%d,%d)",
				g.Label, c.RawHist.Under, c.RawHist.Over, g.DuHist.Under, g.DuHist.Over)
		}
		for b := 0; b < g.DuHist.Bins(); b++ {
			if c.RawHist.Count(b) != g.DuHist.Count(b) {
				add("%s: histogram bucket %d: %d != offline %d",
					g.Label, b, c.RawHist.Count(b), g.DuHist.Count(b))
				break
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if c.RawHist.Quantile(q) != g.DuHist.Quantile(q) {
				add("%s: p%.0f %v != offline %v",
					g.Label, q*100, c.RawHist.Quantile(q), g.DuHist.Quantile(q))
			}
		}
		// Sketches fold the identical observation multiset on both sides
		// but in different orders, so centroids differ; counts and
		// extremes must still match exactly, and every quantile must land
		// within the two sketches' combined documented rank-error bound.
		if c.RawSketch.Count != g.Du.N || g.DuSketch.Count != g.Du.N {
			add("%s: sketch counts %d/%d != sample count %d",
				g.Label, c.RawSketch.Count, g.DuSketch.Count, g.Du.N)
		}
		if g.Du.N > 0 && (c.RawSketch.MinV != g.DuSketch.MinV || c.RawSketch.MaxV != g.DuSketch.MaxV) {
			add("%s: sketch min/max (%v,%v) != offline (%v,%v)", g.Label,
				c.RawSketch.MinV, c.RawSketch.MaxV, g.DuSketch.MinV, g.DuSketch.MaxV)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			eps := g.DuSketch.QuantileErrorBound(q) + c.RawSketch.QuantileErrorBound(q)
			// Quantile clamps out-of-range ranks to min/max itself.
			lo := g.DuSketch.Quantile(q - eps)
			hi := g.DuSketch.Quantile(q + eps)
			v := c.RawSketch.Quantile(q)
			slack := 1e-9*math.Abs(hi) + 1 // float interpolation slop, ns scale
			if v < lo-slack || v > hi+slack {
				add("%s: sketch p%g %.3f ms outside offline rank bracket [%.3f,%.3f] ms (ε=%.2g)",
					g.Label, q*100, v/1e6, lo/1e6, hi/1e6, eps)
			}
		}
		if c.PSMActiveSessions != g.PSMActiveSessions {
			add("%s: PSM-active sessions %d != %d", g.Label, c.PSMActiveSessions, g.PSMActiveSessions)
		}
	}
	return mismatches, maxMeanRel
}
