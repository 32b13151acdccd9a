package tools

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/session"
	"repro/internal/sniffer"
	"repro/internal/testbed"
)

// The comparison tools as session.Methods. On the sim backend each
// method schedules the exact event sequence its classic entry point
// (Ping, HTTPing, …) always has and drives it under a cancellable
// context; on the live backend each runs its closest real-socket
// analogue over the shared live.Prober primitives; ping additionally
// runs on the cellular rig. The acutemon method lives in internal/core.
func init() {
	session.RegisterMethod(pingMethod{})
	session.RegisterMethod(httpingMethod{})
	session.RegisterMethod(javaPingMethod{})
	session.RegisterMethod(ping2Method{})
}

// FinishSim converts a finished (or cancelled-partial) simulated tool
// run into the canonical session shape: per-probe observations streamed
// to sink in sequence order and canonical Sent/Lost accounting. The
// expensive capture analysis (single-walk per-layer attribution, PSM
// verdict) is installed as the result's deferred Analyze hook, so only
// callers that read Layers/PSMActive pay for it. Shared by the tool
// methods here and the acutemon method in internal/core.
//
// resolved is the count of leading probes whose outcome is final even
// on a cancelled run: a stop-and-wait scheme (acutemon) resolves each
// probe — reply or timeout — before launching the next, so it passes
// Sent-1; the interval tools declare losses only at their end-of-run
// tally and pass 0. On a cancelled run, an !OK probe at or past that
// mark is unresolved (its reply may still be in flight): it is neither
// ok nor lost and is omitted from Records and the sink, matching the
// cellular and live backends' partial-result semantics.
func FinishSim(tb *testbed.Testbed, r *Result, cancelled bool, resolved int, sink session.Sink) *session.Result {
	recs := r.Records
	if cancelled && r.Sent < len(recs) {
		// Probes past Sent never launched; a partial result reports
		// only attempted ones.
		recs = recs[:r.Sent]
	}
	out := &session.Result{Sent: r.Sent}
	for i, rec := range recs {
		if !rec.OK && cancelled && i >= resolved {
			continue // unresolved, not lost
		}
		o := session.Observation{Seq: rec.Seq, RTT: rec.RTT, OK: rec.OK, At: rec.RecvAt}
		out.Records = append(out.Records, o)
		if !rec.OK {
			out.Lost++
		}
		session.Emit(sink, o)
	}
	out.DeferAnalysis(func() (*session.Layers, bool) {
		m := tb.MergedCapture()
		var lp *session.Layers
		if l := ExtractLayers(tb, m, recs); len(l.Du) > 0 {
			lp = &l
		}
		return lp, sniffer.AnalyzeMerged(m).PSMActive()
	})
	return out
}

// runSimTool drives a scheduled-but-not-driven tool run (the *Start
// split) to its deadline under ctx, then finishes it into the session
// shape. Cancellation returns the partial result plus ctx's error.
func runSimTool(ctx context.Context, tb *testbed.Testbed, spec session.Spec,
	start func() (*Result, time.Duration)) (*session.Result, error) {
	res, deadline := start()
	runErr := tb.Sim.RunUntilCtx(ctx, tb.Sim.Now()+deadline+time.Millisecond)
	out := FinishSim(tb, res, runErr != nil, 0, spec.Sink)
	out.Raw = res
	return out, runErr
}

// runLiveTool is the live-backend harness shared by the comparison
// tools: K interval-paced probes over a live.Prober, each streamed to
// the sink as it completes. double runs an extra unrecorded wake probe
// immediately before each measured one (the ping2 scheme). Unlike the
// event-driven sim tools, pacing here is probe-end to probe-start — the
// honest analogue for a blocking-socket client.
func runLiveTool(ctx context.Context, e *session.LiveEnv, spec session.Spec,
	probe live.ProbeType, double bool) (*session.Result, error) {
	k := spec.K
	if k <= 0 {
		k = 10
	}
	p, err := live.NewProber(live.Config{
		Target:       e.Target,
		Probe:        probe,
		ProbeTimeout: spec.Timeout,
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	raw := &live.Result{}
	out := &session.Result{Raw: raw}
	start := time.Now()
	for i := 0; i < k; i++ {
		if i > 0 {
			select {
			case <-time.After(spec.Interval):
			case <-ctx.Done():
				return out, ctx.Err()
			}
		}
		if double {
			// Wake probe: outcome intentionally ignored, exactly as
			// ping2 discards the first of its back-to-back pair.
			p.Probe(ctx)
		}
		rtt, perr := p.Probe(ctx)
		if perr != nil && ctx.Err() != nil {
			// Aborted by cancellation, not resolved: neither ok nor
			// lost, and kept off the sink — the same partial-result
			// semantics the sim and cellular backends apply.
			return out, ctx.Err()
		}
		rec := live.ProbeRecord{Seq: i, RTT: rtt, Err: perr}
		raw.Records = append(raw.Records, rec)
		raw.Sent++
		out.Sent++
		if perr != nil {
			raw.Lost++
			out.Lost++
		}
		o := session.Observation{Seq: i, RTT: rtt, OK: perr == nil, Err: perr, At: time.Since(start)}
		out.Records = append(out.Records, o)
		session.Emit(spec.Sink, o)
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// pingMethod is stock ICMP ping: interval-paced echo probes, Android's
// integer-truncation reporting quirk included on the sim backend. The
// live backend substitutes UDP echo (ICMP needs raw sockets); the
// cellular backend runs true ICMP through the modem.
type pingMethod struct{}

func (pingMethod) Name() string { return "ping" }
func (pingMethod) Description() string {
	return "stock ICMP ping (§3.1 quirks on sim; UDP-echo analogue on live; RRC-aware on cellular)"
}

func (pingMethod) Run(ctx context.Context, env session.Env, spec session.Spec) (*session.Result, error) {
	switch e := env.(type) {
	case *session.SimEnv:
		if err := requireProbe("ping", spec.Probe, session.ProbeICMP); err != nil {
			return nil, err
		}
		return runSimTool(ctx, e.TB, spec, func() (*Result, time.Duration) {
			return pingStart(e.TB, PingOptions{Count: spec.K, Interval: spec.Interval, Timeout: spec.Timeout})
		})
	case *session.LiveEnv:
		// The unprivileged live analogue substitutes UDP echo, so both
		// names select it.
		if err := requireProbe("ping", spec.Probe, session.ProbeICMP, session.ProbeUDP); err != nil {
			return nil, err
		}
		return runLiveTool(ctx, e, spec, live.ProbeUDPEcho, false)
	case *session.CellularEnv:
		if err := requireProbe("ping", spec.Probe, session.ProbeICMP); err != nil {
			return nil, err
		}
		return runCellularPing(ctx, e, spec)
	default:
		return nil, fmt.Errorf("%w: ping on %s", session.ErrUnsupported, env.BackendName())
	}
}

// requireProbe rejects an explicit probe selection the method cannot
// honour in this environment; "" always passes (the method default
// applies). Keeping every method on this helper keeps the API contract
// uniform: asking for a mechanism a method will not run is an error,
// never a silent substitution (except the documented icmp→udp live
// analogue above).
func requireProbe(method, probe string, allowed ...string) error {
	if probe == "" {
		return nil
	}
	for _, a := range allowed {
		if probe == a {
			return nil
		}
	}
	// Wrapping ErrUnsupported keeps errors.Is sweeps uniform: every
	// "this mechanism can't run here" condition matches, whichever
	// method raised it.
	return fmt.Errorf("%w: %s: probe mechanism %q unavailable here (allowed: %s)",
		session.ErrUnsupported, method, probe, strings.Join(allowed, "|"))
}

func runCellularPing(ctx context.Context, e *session.CellularEnv, spec session.Spec) (*session.Result, error) {
	k := spec.K
	if k <= 0 {
		k = 100
	}
	out := &session.Result{}
	res, runErr := e.TB.PingContext(ctx, k, spec.Interval,
		func(seq int, rtt time.Duration, ok bool) {
			o := session.Observation{Seq: seq, RTT: rtt, OK: ok, At: e.TB.Sim.Now()}
			out.Records = append(out.Records, o)
			session.Emit(spec.Sink, o)
		})
	out.Sent, out.Lost = res.Sent, res.Lost
	out.Raw = &res
	return out, runErr
}

// httpingMethod is the cross-compiled httping: GET → first response
// byte on a persistent connection.
type httpingMethod struct{}

func (httpingMethod) Name() string { return "httping" }
func (httpingMethod) Description() string {
	return "httping: HTTP GET probes on a persistent connection (native binary, §4.3)"
}

func (httpingMethod) Run(ctx context.Context, env session.Env, spec session.Spec) (*session.Result, error) {
	// "tcp" selects httping -r (connect time, fresh connection per
	// probe); "http" (or empty) the persistent-connection GET.
	if err := requireProbe("httping", spec.Probe, session.ProbeHTTP, session.ProbeTCP); err != nil {
		return nil, err
	}
	switch e := env.(type) {
	case *session.SimEnv:
		return runSimTool(ctx, e.TB, spec, func() (*Result, time.Duration) {
			return httpingStart(e.TB, HTTPingOptions{
				Count: spec.K, Interval: spec.Interval, Timeout: spec.Timeout,
				ConnectOnly: spec.Probe == session.ProbeTCP,
			})
		})
	case *session.LiveEnv:
		if spec.Probe == session.ProbeTCP {
			// httping -r: fresh connection per probe, connect time.
			return runLiveTool(ctx, e, spec, live.ProbeTCPConnect, false)
		}
		return runLiveTool(ctx, e, spec, live.ProbeHTTPGet, false)
	default:
		return nil, fmt.Errorf("%w: httping on %s (no HTTP server in that rig)", session.ErrUnsupported, env.BackendName())
	}
}

// javaPingMethod is MobiPerf's Dalvik prober: reachability-style TCP
// round trips timed from managed code.
type javaPingMethod struct{}

func (javaPingMethod) Name() string { return "javaping" }
func (javaPingMethod) Description() string {
	return "MobiPerf-style Dalvik ping: TCP SYN→RST reachability probes with DVM overhead (§4.3)"
}

func (javaPingMethod) Run(ctx context.Context, env session.Env, spec session.Spec) (*session.Result, error) {
	if err := requireProbe("javaping", spec.Probe, session.ProbeTCP); err != nil {
		return nil, err
	}
	switch e := env.(type) {
	case *session.SimEnv:
		return runSimTool(ctx, e.TB, spec, func() (*Result, time.Duration) {
			return javaPingStart(e.TB, JavaPingOptions{Count: spec.K, Interval: spec.Interval, Timeout: spec.Timeout})
		})
	case *session.LiveEnv:
		// InetAddress.isReachable falls back to a TCP connect; the live
		// analogue times exactly that.
		return runLiveTool(ctx, e, spec, live.ProbeTCPConnect, false)
	default:
		return nil, fmt.Errorf("%w: javaping on %s", session.ErrUnsupported, env.BackendName())
	}
}

// ping2Method is the server-side double-ping baseline of Sui et al.
type ping2Method struct{}

func (ping2Method) Name() string { return "ping2" }
func (ping2Method) Description() string {
	return "ping2: wake probe + immediate measured probe, second RTT reported (Sui et al.)"
}

func (ping2Method) Run(ctx context.Context, env session.Env, spec session.Spec) (*session.Result, error) {
	switch e := env.(type) {
	case *session.SimEnv:
		if err := requireProbe("ping2", spec.Probe, session.ProbeICMP); err != nil {
			return nil, err
		}
		return runSimTool(ctx, e.TB, spec, func() (*Result, time.Duration) {
			return ping2Start(e.TB, Ping2Options{Rounds: spec.K, Gap: spec.Interval, Timeout: spec.Timeout})
		})
	case *session.LiveEnv:
		probe, err := ping2LiveProbe(spec.Probe)
		if err != nil {
			return nil, err
		}
		return runLiveTool(ctx, e, spec, probe, true)
	default:
		return nil, fmt.Errorf("%w: ping2 on %s", session.ErrUnsupported, env.BackendName())
	}
}

// ping2LiveProbe picks the probe pair mechanism for live ping2 (the
// paper's version is server-side ICMP; client-side UDP echo is the
// unprivileged analogue).
func ping2LiveProbe(probe string) (live.ProbeType, error) {
	switch probe {
	case "", session.ProbeUDP:
		return live.ProbeUDPEcho, nil
	case session.ProbeTCP:
		return live.ProbeTCPConnect, nil
	case session.ProbeHTTP:
		return live.ProbeHTTPGet, nil
	default:
		return 0, fmt.Errorf("%w: ping2 probe %q on live", session.ErrUnsupported, probe)
	}
}
