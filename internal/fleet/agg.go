package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/puncture"
	"repro/internal/report"
	"repro/internal/stats"
)

// GroupAggregate is the campaign-level fold of every session sharing one
// scenario label. All fields merge exactly (counts, histogram), stably
// (moments), or within a documented quantile error bound (sketch), so
// per-worker aggregates combine into the same report regardless of how
// sessions were scheduled.
type GroupAggregate struct {
	Label    string `json:"label"`
	Sessions int64  `json:"sessions"`
	// Errors counts sessions that failed to run at all.
	Errors int64 `json:"errors,omitempty"`

	// Probe accounting across the group.
	ProbesSent     int64 `json:"probes_sent"`
	ProbesLost     int64 `json:"probes_lost"`
	BackgroundSent int64 `json:"background_sent"`

	// Du folds every user-level RTT observation (ns) of the group.
	// DuSketch backs the campaign delay-distribution quantiles —
	// unclamped and tail-accurate where the fixed-range DuHist saturates
	// every observation ≥ 500 ms into Over; DuHist stays for
	// fixed-resolution CDF/table rendering. All three cover the same
	// observations (see Report.Validate).
	Du       agg.Moments `json:"du"`
	DuHist   *agg.Hist   `json:"du_hist"`
	DuSketch *agg.Sketch `json:"du_sketch,omitempty"`

	// Inflation folds per-session inflation factors
	// (mean du ÷ emulated path RTT; dimensionless).
	Inflation agg.Moments `json:"inflation"`

	// Overheads folds the attributing sessions' per-layer shares: mean
	// Δdu−k, Δdk−n and mean(dn) − emulated RTT (ns). Its Sessions method
	// is shadowed by the field of that name.
	puncture.Overheads

	// PSMActiveSessions counts sessions whose capture showed power-save
	// activity; CalibratedSessions counts sessions that measured with
	// dpre/db from the campaign's knowledge store.
	PSMActiveSessions  int64 `json:"psm_active_sessions"`
	CalibratedSessions int64 `json:"calibrated_sessions"`
}

func newGroupAggregate(label string) *GroupAggregate {
	return &GroupAggregate{Label: label, DuHist: agg.NewDurationHist(), DuSketch: agg.NewSketch(0)}
}

// DuTrack views the group's du track.
func (g *GroupAggregate) DuTrack() agg.Track {
	return agg.Track{Moments: &g.Du, Hist: g.DuHist, Sketch: g.DuSketch}
}

// fold absorbs one finished session. sample carries the raw user RTTs;
// it is dropped after this call, keeping memory O(groups), not
// O(sessions × probes).
func (g *GroupAggregate) fold(r *SessionResult, sample stats.Sample) {
	g.Sessions++
	if r.Err != nil {
		g.Errors++
		return
	}
	g.ProbesSent += int64(r.Sent)
	g.ProbesLost += int64(r.Lost)
	g.BackgroundSent += int64(r.BackgroundSent)
	for _, v := range sample {
		g.Du.Add(float64(v))
		g.DuHist.Add(v)
		g.DuSketch.AddDuration(v)
	}
	if r.Inflation > 0 {
		g.Inflation.Add(r.Inflation)
	}
	if r.LayersOK {
		g.Overheads.Add(puncture.Attribution{
			UserNS: int64(r.UserOverhead), SDIONS: int64(r.SDIOOverhead), PSMNS: int64(r.PSMInflation)})
	}
	if r.PSMActive {
		g.PSMActiveSessions++
	}
	if r.CalibratedConfig {
		g.CalibratedSessions++
	}
}

// Merge folds another group's aggregate in. Both groups must hold the
// coverage invariant: campaign-built, or decoded and checked by
// Report.Validate. Every part merges with any other of its kind, so a
// merge cannot fail.
func (g *GroupAggregate) Merge(o *GroupAggregate) {
	if o == nil {
		return
	}
	g.DuTrack().Merge(o.DuTrack())
	g.Sessions += o.Sessions
	g.Errors += o.Errors
	g.ProbesSent += o.ProbesSent
	g.ProbesLost += o.ProbesLost
	g.BackgroundSent += o.BackgroundSent
	g.Inflation.Merge(o.Inflation)
	g.Overheads.Merge(&o.Overheads)
	g.PSMActiveSessions += o.PSMActiveSessions
	g.CalibratedSessions += o.CalibratedSessions
}

// DuQuantile returns the q-th (0..1) quantile of the group's
// user-level RTT distribution, from the sketch: unclamped where the
// 500 ms-capped histogram saturates.
func (g *GroupAggregate) DuQuantile(q float64) time.Duration {
	return g.DuSketch.QuantileDuration(q)
}

// LossRate returns the fraction of probes lost.
func (g *GroupAggregate) LossRate() float64 {
	if g.ProbesSent == 0 {
		return 0
	}
	return float64(g.ProbesLost) / float64(g.ProbesSent)
}

// Report is the result of a campaign run. It marshals to JSON as a
// machine-readable campaign record (cmd/acutemon-fleet -json) that the
// ingest load generator can replay and CI can trend-track.
type Report struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	Workers  int    `json:"workers"`
	Sessions int64  `json:"sessions"`
	Errors   int64  `json:"errors"`
	// Wall is the measured wall-clock of the whole campaign.
	Wall time.Duration `json:"wall_ns"`
	// Interrupted reports that the campaign context was cancelled before
	// every session was dispatched; the report covers the sessions that
	// did finish.
	Interrupted bool `json:"interrupted,omitempty"`
	// Groups are the per-label aggregates, sorted by label.
	Groups []*GroupAggregate `json:"groups"`
	// FirstErrors records up to a handful of session error strings for
	// diagnosis.
	FirstErrors []string `json:"first_errors,omitempty"`
	// CalibratedModels lists the models the auto-calibration pre-pass
	// trained and recorded, sorted.
	CalibratedModels []string `json:"calibrated_models,omitempty"`
}

// Validate enforces the coverage invariant on a report decoded from
// outside this process: in every group, Du, DuHist and DuSketch cover
// the same observations (agg.Track.Check). A report written before
// sketches existed is refused, naming the first group without one,
// rather than served from the range-capped histogram.
func (r *Report) Validate() error {
	for i, g := range r.Groups {
		if g == nil {
			return fmt.Errorf("fleet: report group %d is null", i)
		}
		if err := g.DuTrack().Check(); err != nil {
			return fmt.Errorf("fleet: group %q: %w", g.Label, err)
		}
	}
	return nil
}

// Group finds a group by label.
func (r *Report) Group(label string) *GroupAggregate {
	for _, g := range r.Groups {
		if g.Label == label {
			return g
		}
	}
	return nil
}

// mergeGroups combines per-worker aggregate maps into the report's
// sorted group list.
func (r *Report) mergeGroups(locals []map[string]*GroupAggregate) {
	merged := map[string]*GroupAggregate{}
	for _, local := range locals {
		for label, g := range local {
			dst, ok := merged[label]
			if !ok {
				dst = newGroupAggregate(label)
				merged[label] = dst
			}
			dst.Merge(g)
		}
	}
	labels := make([]string, 0, len(merged))
	for l := range merged {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	r.Groups = r.Groups[:0]
	for _, l := range labels {
		g := merged[l]
		r.Groups = append(r.Groups, g)
		r.Sessions += g.Sessions
		r.Errors += g.Errors
	}
}

// Render prints the campaign report as a table plus a header line, in
// the repo's report idiom.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q (scenario %s): %d sessions, %d workers, %v wall",
		r.Name, r.Scenario, r.Sessions, r.Workers, r.Wall.Round(time.Millisecond))
	if r.Wall > 0 {
		fmt.Fprintf(&b, " (%.0f sessions/s)", float64(r.Sessions)/r.Wall.Seconds())
	}
	b.WriteByte('\n')
	if r.Interrupted {
		b.WriteString("campaign interrupted: partial report over finished sessions\n")
	}
	if len(r.CalibratedModels) > 0 {
		fmt.Fprintf(&b, "auto-calibrated %d model(s): %s\n",
			len(r.CalibratedModels), strings.Join(r.CalibratedModels, ", "))
	}
	if r.Errors > 0 {
		fmt.Fprintf(&b, "errors: %d session(s) failed\n", r.Errors)
	}
	for _, e := range r.FirstErrors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	t := report.NewTable("Per-group campaign aggregates (durations in ms).",
		"Group", "Sessions", "Probes", "Loss", "du mean±sd", "p50", "p90", "p99",
		"Inflation", "Δdu−k", "Δdk−n", "PSM infl.", "PSM act.")
	ms := func(f float64) string { return fmt.Sprintf("%.2f", f/float64(time.Millisecond)) }
	for _, g := range r.Groups {
		t.AddRow(g.Label,
			fmt.Sprintf("%d", g.Sessions),
			fmt.Sprintf("%d", g.ProbesSent),
			fmt.Sprintf("%.1f%%", g.LossRate()*100),
			fmt.Sprintf("%s±%s", ms(g.Du.Mean), ms(g.Du.Stddev())),
			ms(float64(g.DuQuantile(0.50))),
			ms(float64(g.DuQuantile(0.90))),
			ms(float64(g.DuQuantile(0.99))),
			fmt.Sprintf("%.2f×", g.Inflation.Mean),
			ms(g.User.Mean),
			ms(g.SDIO.Mean),
			ms(g.PSM.Mean),
			fmt.Sprintf("%d/%d", g.PSMActiveSessions, g.Sessions))
	}
	b.WriteString(t.String())
	return b.String()
}
