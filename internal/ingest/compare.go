package ingest

import (
	"fmt"

	"repro/internal/fleet"
)

// VerifyAgainstReport checks the store's per-group rollup against an
// offline fleet campaign report — the subsystem's determinism contract:
// session and probe counters exact, and each group's raw track in
// agreement with the group's du track under agg.Track.Agree (counts,
// extremes and histograms exact, means within float accumulation
// rounding, sketch percentiles within the sketches' combined rank-error
// bound). It is the single checker behind both the acceptance test and
// the CLI's "verified" claim, so the two can never drift apart. Returns
// human-readable mismatches, each naming its group (empty slice = the
// aggregates agree), plus the largest relative mean drift observed. It
// takes the GroupQuerier slice of the store, so a clustered node's
// fleet view (Server.Fleet) verifies against a campaign report exactly
// like a single store.
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
		if c.Punctured.N != c.Raw.N {
			add("%s: punctured sample count %d != raw %d", g.Label, c.Punctured.N, c.Raw.N)
		}
		if c.PSMActiveSessions != g.PSMActiveSessions {
			add("%s: PSM-active sessions %d != %d", g.Label, c.PSMActiveSessions, g.PSMActiveSessions)
		}
		diffs, rel := c.raw().Agree(g.DuTrack())
		for _, d := range diffs {
			add("%s: raw track: %s", g.Label, d)
		}
		maxMeanRel = max(maxMeanRel, rel)
	}
	return mismatches, maxMeanRel
}
