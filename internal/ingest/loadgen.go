package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/agg"
	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/stats"
)

// Wire names for LoadGen.Wire and the -wire flags.
const (
	WireJSON   = "json"   // JSON lines over HTTP POST (the debuggable default)
	WireBinary = "binary" // framed binary over HTTP POST
	WireTCP    = "tcp"    // framed binary on a long-lived raw TCP connection
)

// LoadGen streams session summaries to an ingest server over the real
// wire protocol — the "million phones" half of the demo. It drives
// either a live fleet campaign (StreamCampaign: every simulated session
// is posted as it finishes, its RTTs collected off the Session API's
// per-probe observation stream) or a recorded campaign report
// (ReplayReport: the -json artifact of cmd/acutemon-fleet, resampled
// through the wire).
type LoadGen struct {
	// URL is the ingest server base, e.g. "http://127.0.0.1:7777". On
	// the tcp wire it is the raw listener's host:port (Server.TCPAddr).
	URL string
	// Wire selects the transport: WireJSON (default), WireBinary, or
	// WireTCP. The binary wires carry the exact same records; devices
	// prefer them when upload bytes or server CPU are the constraint.
	Wire string
	// BatchSize is summaries per POST (<1 → 100).
	BatchSize int
	// TimeMS stamps every summary with a fixed event time; 0 stamps
	// per-batch wall time. Deterministic tests pin it so every summary
	// lands in one window.
	TimeMS int64
	// Client is the HTTP client (nil → a client with sane timeouts).
	Client *http.Client
	// Retries bounds 503-backpressure retries per batch (<0 → none,
	// 0 → 50). Each retry honours a short backoff, so a loaded server
	// sheds without losing the campaign.
	Retries int
	// RetryDelay is the backoff between retries (<=0 → 20 ms).
	RetryDelay time.Duration

	sent int64
	conn net.Conn // lazy long-lived connection for the tcp wire

	// Send-path scratch, reused across batches (LoadGen is
	// single-goroutine by contract — it already carries conn/sent
	// state): the encoded body and the HTTP request header. Without
	// these every POST allocates a batch-sized buffer, which at fold
	// speed turns the loadgen itself into the GC load.
	body   []byte
	reqURL string
	header http.Header
}

func (lg *LoadGen) fill() {
	if lg.BatchSize < 1 {
		lg.BatchSize = 100
	}
	if lg.Client == nil {
		lg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if lg.Retries == 0 {
		lg.Retries = 50
	}
	if lg.RetryDelay <= 0 {
		lg.RetryDelay = 20 * time.Millisecond
	}
}

// Sent reports the number of summaries successfully posted so far.
func (lg *LoadGen) Sent() int64 { return lg.sent }

// Close releases the tcp wire's connection, if one is open.
func (lg *LoadGen) Close() error {
	if lg.conn != nil {
		err := lg.conn.Close()
		lg.conn = nil
		return err
	}
	return nil
}

// Send posts one batch on the configured wire, honouring backpressure
// retries (HTTP 503 / TCP busy byte).
func (lg *LoadGen) Send(ctx context.Context, batch []Summary) error {
	if len(batch) == 0 {
		return nil
	}
	lg.fill()
	contentType := "application/x-ndjson"
	var err error
	switch lg.Wire {
	case "", WireJSON:
		lg.body, err = AppendBatch(lg.body[:0], batch)
	case WireBinary, WireTCP:
		lg.body, err = AppendBinaryBatch(lg.body[:0], batch)
		contentType = BinaryContentType
	default:
		return fmt.Errorf("ingest: unknown wire %q", lg.Wire)
	}
	if err != nil {
		return fmt.Errorf("ingest: encoding batch: %w", err)
	}
	body := lg.body
	if lg.Wire == WireTCP {
		return lg.sendTCP(ctx, body, len(batch))
	}
	if lg.reqURL == "" {
		lg.reqURL = lg.URL + "/v1/ingest"
		lg.header = make(http.Header, 1)
	}
	lg.header.Set("Content-Type", contentType)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.reqURL, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header = lg.header
		resp, err := lg.Client.Do(req)
		if err != nil {
			return fmt.Errorf("ingest: posting batch: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			lg.sent += int64(len(batch))
			return nil
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < lg.Retries:
			select {
			case <-time.After(lg.RetryDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return fmt.Errorf("ingest: server rejected batch: %s", resp.Status)
		}
	}
}

// sendTCP writes one binary frame on the long-lived raw connection and
// waits for its status byte. A busy reply backs off and re-sends; an
// I/O error redials once per attempt (the server closes idle
// connections, which a well-behaved device just reopens).
func (lg *LoadGen) sendTCP(ctx context.Context, frame []byte, n int) error {
	for attempt := 0; ; attempt++ {
		if lg.conn == nil {
			d := net.Dialer{Timeout: 10 * time.Second}
			c, err := d.DialContext(ctx, "tcp", lg.URL)
			if err != nil {
				return fmt.Errorf("ingest: dialing tcp wire: %w", err)
			}
			lg.conn = c
		}
		status, err := func() (byte, error) {
			if deadline, ok := ctx.Deadline(); ok {
				lg.conn.SetDeadline(deadline)
			} else {
				lg.conn.SetDeadline(time.Now().Add(30 * time.Second))
			}
			if _, err := lg.conn.Write(frame); err != nil {
				return 0, err
			}
			var st [1]byte
			if _, err := io.ReadFull(lg.conn, st[:]); err != nil {
				return 0, err
			}
			return st[0], nil
		}()
		switch {
		case err != nil:
			// The frame's fate is unknown on an I/O error; the wire is
			// at-least-once under retry, exactly like HTTP re-posts.
			lg.Close()
			if attempt >= lg.Retries {
				return fmt.Errorf("ingest: tcp wire: %w", err)
			}
		case status == tcpStatusAccepted:
			lg.sent += int64(n)
			return nil
		case status == tcpStatusBusy && attempt < lg.Retries:
			// Backpressure keeps the connection open server-side; if this
			// busy came from a draining server (which closes after it),
			// the next write fails into the redial path above.
		default:
			lg.Close()
			return fmt.Errorf("ingest: tcp wire: server answered status %d", status)
		}
		select {
		case <-time.After(lg.RetryDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SummaryFromSession converts one finished fleet session plus its raw
// user-RTT sample into the wire record a phone would post.
func SummaryFromSession(r *fleet.SessionResult, sample stats.Sample, scenario string, timeMS int64) Summary {
	s := Summary{
		Device:         r.Session.Phone,
		Chipset:        chipsetFor(r.Session.Phone),
		Group:          r.Session.Label,
		Scenario:       scenario,
		TimeMS:         timeMS,
		RTTs:           make([]int64, len(sample)),
		Sent:           r.Sent,
		Lost:           r.Lost,
		BackgroundSent: r.BackgroundSent,
		EmulatedRTTNS:  int64(r.Session.EmulatedRTT),
		Inflation:      r.Inflation,
		LayersOK:       r.LayersOK,
		PSMActive:      r.PSMActive,
		Calibrated:     r.CalibratedConfig,
	}
	for i, v := range sample {
		s.RTTs[i] = int64(v)
	}
	if r.LayersOK {
		s.UserOverheadNS = int64(r.UserOverhead)
		s.SDIOOverheadNS = int64(r.SDIOOverhead)
		s.PSMInflationNS = int64(r.PSMInflation)
	}
	return s
}

// chipsetFor resolves the WiFi chipset family a real collector would
// read from the device build — on the wire it lets the server's family
// fallback correct models it has never seen attribute.
func chipsetFor(phone string) string {
	if prof, ok := android.ProfileByName(phone); ok {
		return prof.Chipset
	}
	return ""
}

// StreamCampaign runs the fleet campaign with every finished session
// wired through the ingest protocol, batching as it goes, and returns
// the campaign's own offline report — the ground truth a determinism
// check compares the server's queried aggregates against. Sessions that
// errored are not posted (a crashed phone reports nothing).
func (lg *LoadGen) StreamCampaign(ctx context.Context, c fleet.Campaign) (*fleet.Report, error) {
	lg.fill()
	scenario := c.Scenario
	if scenario == "" {
		scenario = "custom"
	}
	// A dead target should fail the campaign fast, not after every
	// remaining session has been simulated for nothing: the first Send
	// error cancels the campaign context and fleet.RunContext drains
	// into a partial report.
	base := ctx
	if c.Context != nil {
		base = c.Context
	}
	runCtx, cancelRun := context.WithCancel(base)
	defer cancelRun()

	// Wire I/O runs in a dedicated sender goroutine: the campaign holds its
	// observer lock across OnSample, so a synchronous POST there would
	// stall every simulation worker for the duration of each flush (and
	// its backpressure retries). A short pipeline lets simulation and
	// transport overlap; a slow server still backpressures the workers
	// once the pipeline fills.
	batches := make(chan []Summary, 4)
	senderDone := make(chan struct{})
	var sendErr error // written only by the sender; read after senderDone
	go func() {
		defer close(senderDone)
		for b := range batches {
			if sendErr != nil {
				continue // drain remaining batches after failure
			}
			if err := lg.Send(ctx, b); err != nil {
				sendErr = err
				cancelRun()
			}
		}
	}()

	buf := make([]Summary, 0, lg.BatchSize)
	prev := c.OnSample
	c.OnSample = func(r fleet.SessionResult, sample stats.Sample) {
		if prev != nil {
			prev(r, sample)
		}
		if r.Err != nil {
			return
		}
		ts := lg.TimeMS
		if ts == 0 {
			ts = time.Now().UnixMilli()
		}
		buf = append(buf, SummaryFromSession(&r, sample, scenario, ts))
		if len(buf) >= lg.BatchSize {
			batches <- buf
			buf = make([]Summary, 0, lg.BatchSize)
		}
	}
	rep, err := fleet.RunContext(runCtx, c)
	if len(buf) > 0 {
		batches <- buf
	}
	close(batches)
	<-senderDone
	if err != nil {
		return rep, err
	}
	return rep, sendErr
}

// ReplayReport resamples a recorded campaign report through the wire:
// for every group it reconstructs the du distribution from the report's
// quantile sketch (centroid means at centroid weights, preserving the
// tail past the histogram range) and spreads it over the group's
// session count, preserving session/probe totals exactly. Group-mean
// overheads ride along on every synthesized summary, so the server's
// puncturing path exercises the same corrections the live campaign
// would. A report that fails Report.Validate (one written before
// sketches existed) is refused before anything is sent. Returns the
// number of summaries posted.
func (lg *LoadGen) ReplayReport(ctx context.Context, rep *fleet.Report) (int, error) {
	if err := rep.Validate(); err != nil {
		return 0, err
	}
	lg.fill()
	posted := 0
	for _, g := range rep.Groups {
		n := int(g.Sessions - g.Errors)
		if n <= 0 {
			continue
		}
		// Samples are generated lazily from a cursor, so a
		// million-session recorded report costs O(BatchSize) memory here
		// rather than materializing every reconstructed RTT at once.
		flat := g.DuSketch.Clone()
		flat.Flush()
		cur := &sketchSample{cs: flat.Centroids}
		total := int(g.Du.N)
		sent, lost, bg := int(g.ProbesSent), int(g.ProbesLost), int(g.BackgroundSent)
		batch := make([]Summary, 0, lg.BatchSize)
		for i := 0; i < n; i++ {
			s := Summary{
				Device:   g.Label,
				Group:    g.Label,
				Scenario: rep.Scenario,
				TimeMS:   lg.TimeMS,
				RTTs:     cur.take(share(total, n, i)),
				Sent:     share(sent, n, i),
				Lost:     share(lost, n, i),

				BackgroundSent: share(bg, n, i),
				PSMActive:      int64(i) < g.PSMActiveSessions,
				Calibrated:     int64(i) < g.CalibratedSessions,
			}
			if s.Lost > s.Sent {
				s.Lost = s.Sent
			}
			if len(s.RTTs) > s.Sent {
				s.Sent = len(s.RTTs)
			}
			if g.Inflation.N > 0 {
				s.Inflation = g.Inflation.Mean
			}
			if int64(i) < g.User.N {
				s.LayersOK = true
				s.UserOverheadNS = int64(g.User.Mean)
				s.SDIOOverheadNS = int64(g.SDIO.Mean)
				s.PSMInflationNS = int64(g.PSM.Mean)
			}
			batch = append(batch, s)
			if len(batch) >= lg.BatchSize {
				if err := lg.Send(ctx, batch); err != nil {
					return posted, err
				}
				posted += len(batch)
				batch = batch[:0]
			}
		}
		if err := lg.Send(ctx, batch); err != nil {
			return posted, err
		}
		posted += len(batch)
	}
	return posted, nil
}

// churnRTTs is the RTT samples per churn summary.
const churnRTTs = 3

// ChurnSpec parameterises LoadGen.Churn, the retention workout: rounds
// of *rotating* device identities marching forward through event time,
// so cells are minted and expire continuously — the traffic shape that
// must hold resident cells at the cap with compaction preserving every
// count.
type ChurnSpec struct {
	// Rounds is how many identity generations to push (<1 → 10).
	Rounds int
	// Keys is distinct device identities per round (<1 → 100).
	Keys int
	// Sessions is summaries per key per round (<1 → 1).
	Sessions int
	// StartMS is the event-time stamp of round 0 (0 → now). Tests pin
	// it into the past so windows are already expired when the janitor
	// looks.
	StartMS int64
	// StepMS advances event time per round (<=0 → one store window is a
	// good choice; default 60000). Forward motion is what rotates
	// windows without waiting on wall clock.
	StepMS int64
	// BaseRTT seeds the synthetic RTT values (ns; <=0 → 30ms).
	BaseRTT int64
}

func (c *ChurnSpec) fill() {
	if c.Rounds < 1 {
		c.Rounds = 10
	}
	if c.Keys < 1 {
		c.Keys = 100
	}
	if c.Sessions < 1 {
		c.Sessions = 1
	}
	if c.StartMS == 0 {
		c.StartMS = time.Now().UnixMilli()
	}
	if c.StepMS <= 0 {
		c.StepMS = 60_000
	}
	if c.BaseRTT <= 0 {
		c.BaseRTT = int64(30 * time.Millisecond)
	}
}

// Churn streams the rotating-key workload: every (round, key) pair is a
// brand-new device identity at a fresh event time, so no summary ever
// folds into an existing cell. Returns the number of summaries posted;
// the expected server-side invariant is
// folded == sum over surviving cells + compacted/rollup sessions, with
// resident fine cells ≤ MaxCells throughout.
func (lg *LoadGen) Churn(ctx context.Context, spec ChurnSpec) (int, error) {
	lg.fill()
	spec.fill()
	posted := 0
	batch := make([]Summary, 0, lg.BatchSize)
	for round := 0; round < spec.Rounds; round++ {
		ts := spec.StartMS + int64(round)*spec.StepMS
		for key := 0; key < spec.Keys; key++ {
			dev := fmt.Sprintf("churn-%05d-%03d", round, key)
			for sess := 0; sess < spec.Sessions; sess++ {
				s := Summary{
					Device:   dev,
					Group:    fmt.Sprintf("churn-g%02d", key%8),
					Scenario: "churn",
					TimeMS:   ts,
					RTTs:     make([]int64, churnRTTs),
					Sent:     churnRTTs,
				}
				for i := range s.RTTs {
					// Deterministic spread around BaseRTT keeps the
					// distribution non-trivial without a RNG.
					s.RTTs[i] = spec.BaseRTT + int64((key*7+i*13)%23)*int64(time.Millisecond)
				}
				batch = append(batch, s)
				if len(batch) >= lg.BatchSize {
					if err := lg.Send(ctx, batch); err != nil {
						return posted, err
					}
					posted += len(batch)
					batch = batch[:0]
				}
			}
		}
	}
	if err := lg.Send(ctx, batch); err != nil {
		return posted, err
	}
	posted += len(batch)
	return posted, nil
}

// sketchSample streams a sketch's reconstructed sample in order: each
// centroid emits Weight copies of its mean, so replayed heavy-tail
// reports keep their real upper percentiles.
type sketchSample struct {
	cs      []agg.Centroid
	idx     int
	emitted int64
}

// take returns the next n reconstructed samples (fewer only if the
// sketch is exhausted).
func (c *sketchSample) take(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n && c.idx < len(c.cs) {
		ct := c.cs[c.idx]
		if c.emitted < ct.Weight {
			v := int64(ct.Mean)
			if v < 0 {
				v = 0
			}
			out = append(out, v)
			c.emitted++
			continue
		}
		c.idx++
		c.emitted = 0
	}
	return out
}

// share splits total across n near-evenly; slot i gets the remainder's
// i-th unit.
func share(total, n, i int) int {
	base := total / n
	if i < total%n {
		base++
	}
	return base
}
