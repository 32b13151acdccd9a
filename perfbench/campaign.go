package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
	"repro/internal/stats"
)

// campaign: the device-mix fleet campaign with Workers = nproc,
// streamed through LoadGen.StreamCampaign on the binary HTTP wire into
// the in-process server, event time pinned and windows off. The timed
// phase cancels dispatch at the deadline; in-flight sessions drain and
// are posted, so the partial report still verifies exactly. It runs by
// hand but is not in BENCHMARK.json: its spread between runs follows the
// host's memory contention and is past the gate's bound (NOTES.md).
const (
	campaignProbes = 100
	campaignBatch  = 1
	// campaignSessionsPerSecond sizes the session list well above the
	// rate nproc simulation workers reach, so dispatch never runs dry.
	campaignSessionsPerSecond = 500
	campaignReplayCap         = 20000
	campaignProducerSample    = 20
)

type campaign struct {
	o        opts
	srv      *ingest.Server
	tr       *timedTransport
	lg       *ingest.LoadGen
	sessions []fleet.Session
	// posted are the summaries the load generator built, in completion
	// order, for the traced replay (capped).
	posted []ingest.Summary
	report *fleet.Report
}

func setupCampaign(o opts) (fixture, error) {
	sc, ok := fleet.ScenarioByName("device-mix")
	if !ok {
		return nil, fmt.Errorf("scenario device-mix not found")
	}
	// A short census warms the producer (lazy initialization, the first
	// GC cycles) so the timed phase starts in steady state.
	if _, err := runCensus(o.seed, 1, campaignProbes); err != nil {
		return nil, err
	}
	n := int(campaignSessionsPerSecond * timedPhase(o).Seconds())
	c := &campaign{o: o}
	c.sessions = sc.Build(fleet.Params{Sessions: n, Seed: o.seed, Probes: campaignProbes})
	srv, err := ingest.Start(ingest.Config{Window: -1})
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.tr = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: nproc(), DisableCompression: true}}
	client := &http.Client{Transport: c.tr, Timeout: 30 * time.Second}
	c.lg = &ingest.LoadGen{
		URL:       srv.URL(),
		Wire:      ingest.WireBinary,
		BatchSize: campaignBatch,
		TimeMS:    pinnedEventMS,
		Client:    client,
		// Retry backpressure for busyBudget, like the other workloads.
		Retries:    int(busyBudget / (20 * time.Millisecond)),
		RetryDelay: 20 * time.Millisecond,
	}
	if err := warm(client, srv.URL(), 1); err != nil {
		c.close()
		_ = shutdown(srv) // the warm-up error is the one to report
		return nil, err
	}
	return c, nil
}

func (c *campaign) server() *ingest.Server        { return c.srv }
func (c *campaign) readerInterval() time.Duration { return 50 * time.Millisecond }

func (c *campaign) drive(deadline time.Time) clientStats {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	camp := fleet.Campaign{
		Name:     "perfbench",
		Scenario: "device-mix",
		Seed:     c.o.seed,
		Workers:  1,
		Sessions: c.sessions,
		// Dispatch stops at the deadline; posting runs on the
		// background context so the drained sessions still arrive.
		Context: ctx,
		OnSample: func(r fleet.SessionResult, sample stats.Sample) {
			if r.Err == nil && len(c.posted) < campaignReplayCap {
				c.posted = append(c.posted, ingest.SummaryFromSession(&r, sample, "device-mix", pinnedEventMS))
			}
		},
	}
	var cs clientStats
	rep, err := c.lg.StreamCampaign(context.Background(), camp)
	if err != nil {
		cs.errs = append(cs.errs, fmt.Sprintf("campaign: %v", err))
	}
	c.report = rep
	if rep != nil {
		for _, g := range rep.Groups {
			cs.attempted += g.Sessions - g.Errors
		}
	}
	cs.acked = c.lg.Sent()
	cs.refused = cs.attempted - cs.acked
	cs.acks = c.tr.samples()
	return cs
}

func (c *campaign) check(out *outcome) []string {
	bad := conservation(c.srv.Store(), out)
	if c.report == nil {
		return append(bad, "campaign: no report")
	}
	mismatches, _ := ingest.VerifyAgainstReport(c.srv.Store(), c.report)
	return append(bad, mismatches...)
}

func (c *campaign) replayInput(out *outcome) replayInput {
	var frames [][]byte
	for i := 0; i < len(c.posted); i += campaignBatch {
		end := min(i+campaignBatch, len(c.posted))
		frame, err := ingest.AppendBinaryBatch(nil, c.posted[i:end])
		if err != nil {
			panic(fmt.Sprintf("perfbench: re-encoding posted summaries: %v", err))
		}
		frames = append(frames, frame)
	}
	var producer []producerSpec
	for i := 0; i < campaignProducerSample && i < len(c.sessions); i++ {
		producer = append(producer, producerSpec{
			phone:  c.sessions[i].Phone,
			seed:   fleet.SeedFor(c.o.seed, i),
			probes: campaignProbes,
		})
	}
	return replayInput{
		frames:         frames,
		wire:           ingest.WireBinary,
		newStore:       func() *ingest.Store { return ingest.NewStore(0, 0) },
		knowledge:      func() *puncture.Store { return puncture.NewStore(0) },
		rate:           out.metrics["summaries_per_s"].Value,
		readerEvery:    c.readerInterval(),
		producer:       producer,
		producerInPath: true,
	}
}

func (c *campaign) close() {
	c.tr.base.CloseIdleConnections()
}

// timedTransport records the latency of every accepted batch: POST sent
// → 202 status line received.
type timedTransport struct {
	base *http.Transport
	mu   sync.Mutex
	acks []timed
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && resp.StatusCode == http.StatusAccepted {
		now := time.Now()
		t.mu.Lock()
		t.acks = append(t.acks, timed{now, ms(now.Sub(start))})
		t.mu.Unlock()
	}
	return resp, err
}

func (t *timedTransport) samples() []timed {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]timed(nil), t.acks...)
}
