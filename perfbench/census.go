package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
	"repro/internal/stats"
)

// census is a small device census run through the real producer (fleet
// campaign → session.Run → Analyze → SummaryFromSession): one group of
// sessions per Table 1 phone, each with per-layer attribution. The
// ingest workloads draw their summaries from it.
type census struct {
	summaries []ingest.Summary // in session order
	sessions  []producerSpec   // the sessions that produced them
}

// producerSpec is one simulated session the traced replay re-runs.
type producerSpec struct {
	phone  string
	seed   int64
	probes int
}

func runCensus(seed int64, perModel, probes int) (*census, error) {
	var sessions []fleet.Session
	for _, p := range android.Profiles() {
		for i := 0; i < perModel; i++ {
			sessions = append(sessions, fleet.Session{Phone: p.Model, Probes: probes})
		}
	}
	type row struct {
		id int
		s  ingest.Summary
	}
	var rows []row
	c := fleet.Campaign{
		Name:     "perfbench-census",
		Scenario: "census",
		Seed:     seed,
		Workers:  nproc(),
		Sessions: sessions,
		OnSample: func(r fleet.SessionResult, sample stats.Sample) {
			if r.Err == nil && len(sample) > 0 {
				rows = append(rows, row{r.Session.ID, ingest.SummaryFromSession(&r, sample, "census", 0)})
			}
		},
	}
	if _, err := fleet.RunContext(context.Background(), c); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	if len(rows) != len(sessions) {
		return nil, fmt.Errorf("census: %d of %d sessions produced a summary", len(rows), len(sessions))
	}
	// Completion order depends on scheduling; session order does not.
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	out := &census{}
	for _, r := range rows {
		out.summaries = append(out.summaries, r.s)
		out.sessions = append(out.sessions, producerSpec{phone: r.s.Device, seed: fleet.SeedFor(seed, r.id), probes: probes})
	}
	return out, nil
}

// knowledge returns a fresh device-knowledge store taught from the
// census's attributions — the learned, family and global rungs an
// unknown device's correction resolves against.
func (c *census) knowledge() *puncture.Store {
	st := puncture.NewStore(0)
	for _, s := range c.summaries {
		if s.LayersOK {
			st.RecordAttribution(s.Device, s.Chipset, s.UserOverheadNS, s.SDIOOverheadNS, s.PSMInflationNS)
		}
	}
	return st
}

// onePerModel picks the first census session of each phone: the
// replay's producer sample.
func (c *census) onePerModel() []producerSpec {
	seen := map[string]bool{}
	var out []producerSpec
	for _, s := range c.sessions {
		if !seen[s.phone] {
			seen[s.phone] = true
			out = append(out, s)
		}
	}
	return out
}
