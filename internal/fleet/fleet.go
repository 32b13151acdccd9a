// Package fleet runs measurement campaigns: hundreds to thousands of
// simulated phone sessions executed concurrently on a bounded worker
// pool. It is the scale-out layer the paper's §4.1 future-work item
// implies — building a calibrated-parameter database across many device
// models only pays off when many handsets measure at once, the regime
// MopEye-style opportunistic deployments operate in.
//
// Design points:
//
//   - every session owns a private testbed.Testbed, so sessions share no
//     simulation state and schedule freely across workers;
//   - seeding is deterministic per session (derived from the campaign
//     seed and the session's index via SeedFor), so a campaign's
//     simulated measurements are identical for any worker count: counts,
//     min/max, and histograms match exactly, while floating-point moment
//     statistics (mean/variance) agree up to accumulation rounding,
//     since worker-local fold order varies;
//   - workers fold finished sessions into worker-local GroupAggregates
//     (mergeable moments + histograms) and the aggregates merge at the
//     end — no raw sample ever outlives its session;
//   - an optional puncture.Store (Campaign.Profiles) shares calibrated
//     Tis/Tip parameters across workers without a global lock and
//     learns every attributing session's overheads.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/puncture"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Session specifies one simulated measurement session. It is a thin
// campaign-side view of a session.Spec: RunContext hands each one to
// the unified Session API, so campaigns mix backends (sim, cellular) and
// methods (acutemon, ping, httping, javaping, ping2) freely within one
// report.
type Session struct {
	// ID is the session's index within the campaign; it keys the
	// session's deterministic seed. Filled by RunContext when building
	// from a scenario.
	ID int
	// Label is the aggregation group ("" defaults to the phone model,
	// suffixed with the method/backend when those are non-default).
	Label string
	// Backend selects the environment: "sim" (default) or "cellular".
	// Campaigns are simulation-scale, so the live backend is excluded.
	Backend string
	// Method selects the probing scheme by registry name
	// ("" → "acutemon").
	Method string
	// Phone is the device model (Table 1 name); "" defaults to the
	// Nexus 5.
	Phone string
	// Seed overrides the derived per-session seed when non-zero.
	Seed int64
	// EmulatedRTT is the tc-style path delay on sim, the operator-core
	// RTT on cellular (0 → 30 ms).
	EmulatedRTT time.Duration
	// Probes is the per-session probe count K (0 → 100).
	Probes int
	// Probe selects the probe mechanism (default TCP SYN).
	Probe core.ProbeType
	// Interval paces the comparison tools' probes (0 → 1 s);
	// acutemon's stop-and-wait MT ignores it.
	Interval time.Duration
	// Radio selects the cellular RRC model ("" → "umts").
	Radio string
	// Settle is how long the idle phone runs before measuring
	// (0 → 300 ms), letting it doze as a real pocket phone would.
	Settle time.Duration
	// CrossTraffic turns on the §4.3 iPerf load.
	CrossTraffic bool
	// DisablePSM / DisableBusSleep pin the radio / bus awake (ablation
	// arms).
	DisablePSM      bool
	DisableBusSleep bool
	// PSMTimeout overrides the phone profile's nominal Tip (PSM timer
	// sweeps).
	PSMTimeout time.Duration
}

func (s *Session) fill(campaignSeed int64) {
	if s.Backend == "" {
		s.Backend = "sim"
	}
	if s.Method == "" {
		s.Method = "acutemon"
	}
	if s.Backend == "cellular" && s.Radio == "" {
		s.Radio = session.DefaultRadio
	}
	if s.Phone == "" {
		s.Phone = session.DefaultPhone
	}
	if s.Label == "" {
		s.Label = s.Phone
		if s.Backend == "cellular" {
			s.Label += "/cellular-" + s.Radio
		}
		if s.Method != "acutemon" {
			s.Label += "/" + s.Method
		}
	}
	// Pinning the session-layer defaults here (rather than passing
	// zeros through) keeps derived statistics — inflation divides by
	// EmulatedRTT — tied to the values the simulation actually used.
	if s.EmulatedRTT == 0 {
		s.EmulatedRTT = session.DefaultEmulatedRTT
	}
	if s.Probes <= 0 {
		s.Probes = 100
	}
	if s.Settle <= 0 {
		s.Settle = session.DefaultSettle
	}
	if s.Seed == 0 {
		s.Seed = SeedFor(campaignSeed, s.ID)
	}
}

// SessionResult summarizes one finished session. Raw probe RTTs are
// folded into the campaign aggregates and dropped; only the summary
// travels.
type SessionResult struct {
	Session Session
	Err     error

	// Summary describes the session's user-level RTT sample.
	Summary stats.Summary
	Sent    int
	Lost    int
	// BackgroundSent counts the TTL=1 wake-keeping packets.
	BackgroundSent int

	// Inflation is mean(du) ÷ emulated path RTT (1.0 = no inflation).
	Inflation float64

	// LayersOK reports whether per-layer attribution was extractable.
	LayersOK bool
	// UserOverhead is the session's mean Δdu−k (user-space share).
	UserOverhead time.Duration
	// SDIOOverhead is the session's mean Δdk−n (host-bus share).
	SDIOOverhead time.Duration
	// PSMInflation is mean(dn) − emulated RTT (air-path share: PSM/AP
	// buffering plus medium contention).
	PSMInflation time.Duration

	// PSMActive reports power-save activity in the merged capture.
	PSMActive bool
	// CalibratedConfig reports that the session's dpre/db came from the
	// campaign's knowledge store.
	CalibratedConfig bool
}

// Campaign configures a concurrent measurement campaign.
type Campaign struct {
	// Name labels the report.
	Name string
	// Scenario names the preset the session list came from (report
	// cosmetics; "" renders as "custom").
	Scenario string
	// Seed keys every derived per-session seed.
	Seed int64
	// Workers bounds the pool (0 → GOMAXPROCS).
	Workers int
	// Sessions is the work list. Build one by hand or from a Scenario.
	Sessions []Session
	// Profiles, when non-nil, is the campaign's device-knowledge store:
	// it supplies calibrated dpre/db per model, receives fresh
	// calibrations, and learns from every session with extractable
	// per-layer attribution (Δdu−k / Δdk−n / PSM-share means, keyed by
	// model and chipset family), so one snapshot carries everything the
	// campaign learned. Save it with Profiles.SaveFile and merge it into
	// a live ingestd via POST /v1/profiles (the fleet→ingest knowledge
	// path).
	Profiles *puncture.Store
	// AutoCalibrate runs the training procedure once per distinct model
	// missing from Profiles before sessions start — a deterministic
	// pre-pass (model list and calibration seeds derive from the
	// campaign seed), so campaign results stay independent of worker
	// scheduling.
	AutoCalibrate bool
	// CalibrateOptions tunes auto-calibration (zero values use
	// fleet-friendly reduced rounds).
	CalibrateOptions core.CalibrateOptions
	// OnSession, when set, observes every finished session. Calls are
	// serialized; ordering follows completion, not session ID.
	OnSession func(SessionResult)
	// OnSample, when set, observes every finished session together with
	// its raw user-RTT sample before the sample is dropped — the hook the
	// ingest load generator uses to put real per-probe observations on
	// the wire. The sample is assembled from the session's per-probe
	// observation stream (the Session API's Sink), so it is exactly what
	// a streaming consumer would have seen. Serialized like OnSession;
	// the callee must not retain the slice past the call.
	OnSample func(SessionResult, stats.Sample)
	// Context, when non-nil, cancels the campaign: dispatching stops at
	// the next session boundary, in-flight sessions drain, and
	// RunContext returns a partial report with Interrupted set.
	Context context.Context
}

// RunContext executes the campaign under ctx and returns the merged
// report: dispatching stops at the next session boundary once ctx is
// done, in-flight sessions drain, and the partial report comes back
// with Interrupted set. This is the one entry point (context first,
// like session.Run); a non-nil ctx takes precedence over any
// Campaign.Context already set.
func RunContext(ctx context.Context, c Campaign) (*Report, error) {
	if ctx != nil {
		c.Context = ctx
	}
	if len(c.Sessions) == 0 {
		return nil, fmt.Errorf("fleet: campaign %q has no sessions", c.Name)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.Sessions) {
		workers = len(c.Sessions)
	}
	sessions := make([]Session, len(c.Sessions))
	for i, s := range c.Sessions {
		s.ID = i
		s.fill(c.Seed)
		sessions[i] = s
	}

	scenario := c.Scenario
	if scenario == "" {
		scenario = "custom"
	}
	rep := &Report{Name: c.Name, Scenario: scenario, Workers: workers}
	start := time.Now()
	if c.Profiles != nil && c.AutoCalibrate {
		var calErrs []string
		rep.CalibratedModels, calErrs = precalibrate(&c, sessions, workers)
		rep.FirstErrors = append(rep.FirstErrors, calErrs...)
	}
	locals := make([]map[string]*GroupAggregate, workers)
	var (
		errMu    sync.Mutex
		onMu     sync.Mutex
		firstErr []string
	)

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		local := map[string]*GroupAggregate{}
		locals[w] = local
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := sessions[i]
				res, sample := runSession(&c, s)
				g, ok := local[s.Label]
				if !ok {
					g = newGroupAggregate(s.Label)
					local[s.Label] = g
				}
				g.fold(&res, sample)
				if res.Err != nil {
					errMu.Lock()
					if len(firstErr) < 5 {
						firstErr = append(firstErr, fmt.Sprintf("session %d (%s): %v", s.ID, s.Label, res.Err))
					}
					errMu.Unlock()
				}
				if c.OnSession != nil || c.OnSample != nil {
					onMu.Lock()
					if c.OnSession != nil {
						c.OnSession(res)
					}
					if c.OnSample != nil {
						c.OnSample(res, sample)
					}
					onMu.Unlock()
				}
			}
		}()
	}
	var done <-chan struct{}
	if c.Context != nil {
		done = c.Context.Done()
	}
dispatch:
	for i := range sessions {
		select {
		case <-done:
			rep.Interrupted = true
			break dispatch
		default:
		}
		select {
		case jobs <- i:
		case <-done:
			rep.Interrupted = true
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	rep.Wall = time.Since(start)
	rep.FirstErrors = append(rep.FirstErrors, firstErr...)
	if err := rep.mergeGroups(locals); err != nil {
		return nil, err
	}
	return rep, nil
}

// precalibrate runs the training procedure for every distinct session
// model missing from the knowledge store, in parallel over dedicated
// testbeds. Model order and per-model seeds derive from the campaign alone, so
// the resulting calibrations are reproducible for any worker count or
// session schedule. Returns the calibrated models plus one error string
// per model whose calibration failed (those sessions run uncalibrated).
func precalibrate(c *Campaign, sessions []Session, workers int) (models, errs []string) {
	opts := c.CalibrateOptions
	if opts.TipRounds == 0 {
		opts.TipRounds = 4
	}
	if opts.PairsPerGap == 0 {
		opts.PairsPerGap = 2
	}
	seen := map[string]bool{}
	var missing []string
	for _, s := range sessions {
		if seen[s.Phone] {
			continue
		}
		seen[s.Phone] = true
		if !c.Profiles.Calibrated(s.Phone) {
			missing = append(missing, s.Phone)
		}
	}
	sort.Strings(missing)
	done := Map(workers, len(missing), func(i int) error {
		// Honour campaign cancellation between models, so a signal can
		// interrupt the pre-pass too, not just session dispatch.
		if c.Context != nil && c.Context.Err() != nil {
			return c.Context.Err()
		}
		prof, ok := android.ProfileByName(missing[i])
		if !ok {
			return fmt.Errorf("unknown phone model %q", missing[i])
		}
		cfg := testbed.DefaultConfig()
		cfg.Seed = SeedFor(c.Seed, -100-i)
		cfg.Phone = prof
		_, err := core.CalibrateInto(c.Profiles, testbed.New(cfg), opts)
		return err
	})
	for i, err := range done {
		if err != nil {
			// Cancellation is reported once via Report.Interrupted, not
			// as a per-model error.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				errs = append(errs, fmt.Sprintf("calibrate %s: %v", missing[i], err))
			}
			continue
		}
		models = append(models, missing[i])
	}
	return models, errs
}

// runSession hands one campaign session to the unified Session API
// (session.Run) and folds the canonical result back into the
// campaign's summary shape. The raw user-RTT sample is assembled from
// the session's per-probe observation stream (a session.Sink) — the
// same stream the ingest load generator consumes via OnSample.
func runSession(c *Campaign, s Session) (SessionResult, stats.Sample) {
	out := SessionResult{Session: s}

	spec := session.Spec{
		Backend:         s.Backend,
		Method:          s.Method,
		K:               s.Probes,
		Interval:        s.Interval,
		Phone:           s.Phone,
		Seed:            s.Seed,
		EmulatedRTT:     s.EmulatedRTT,
		Settle:          s.Settle,
		CrossTraffic:    s.CrossTraffic,
		DisablePSM:      s.DisablePSM,
		DisableBusSleep: s.DisableBusSleep,
		PSMTimeout:      s.PSMTimeout,
		Radio:           s.Radio,
	}
	if s.Method == "acutemon" && s.Probe != 0 {
		// Probe selects acutemon's MT mechanism; the comparison tools
		// each fix their own. The zero value stays "" so each backend
		// keeps its own default (TCP SYN on sim, UDP echo on cellular).
		spec.Probe = s.Probe.String()
	}
	if c.Profiles != nil && s.Method == "acutemon" && s.Backend == "sim" {
		if prof, ok := android.ProfileByName(s.Phone); ok {
			if e, ok := c.Profiles.Calibration(prof.Model); ok {
				spec.WarmupDelay = e.Warmup
				spec.BackgroundInterval = e.Interval
				out.CalibratedConfig = true
			}
		}
	}

	var sample stats.Sample
	spec.Sink = session.SinkFunc(func(o session.Observation) {
		if o.OK {
			sample = append(sample, o.RTT)
		}
	})
	// The unified pipeline feeds each attributing session into the
	// campaign's knowledge store as it completes (concurrency-safe, no
	// extra lock: the store is stripe-locked internally).
	spec.Knowledge = c.Profiles
	res, err := session.Run(context.Background(), spec)
	if err != nil {
		out.Err = err
		return out, nil
	}
	out.Summary = sample.Summarize()
	out.Sent = res.Sent
	out.Lost = res.Lost
	out.BackgroundSent = res.BackgroundSent
	if s.EmulatedRTT > 0 && len(sample) > 0 {
		out.Inflation = float64(sample.Mean()) / float64(s.EmulatedRTT)
	}
	res.Analyze() // campaigns always fold the per-layer attribution
	if l := res.Layers; l != nil && len(l.Dn) > 0 && len(l.DuK) > 0 && len(l.DkN) > 0 {
		out.LayersOK = true
		out.UserOverhead = l.DuK.Mean()
		out.SDIOOverhead = l.DkN.Mean()
		out.PSMInflation = l.Dn.Mean() - s.EmulatedRTT
	}
	out.PSMActive = res.PSMActive
	return out, sample
}
