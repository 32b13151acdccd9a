// Package session defines the unified measurement-session API the rest
// of the repository is built on: one context-first pipeline
//
//	Run(ctx, Spec) (*Result, error)
//
// where a Backend ("sim", "live", "cellular") provides the environment
// a session runs in and a Method ("acutemon", "ping", "httping",
// "javaping", "ping2") provides the probing scheme. The paper's core
// claim — that the *same* probing scheme measured through *different*
// layers and tools yields wildly different delays — only supports
// credible comparisons when every tool runs through one harness with
// identical session semantics; this package is that harness.
//
// Backends and methods are registered by name (the sim/live/cellular
// backends here; the methods from internal/core and internal/tools at
// init time), so every (backend × method) pair shares one entry point,
// one cancellation contract, one error path, and one per-probe
// observation stream (Sink). The fleet campaign scheduler, the ingest
// load generator, and all three CLIs sit on top of Run.
package session

import (
	"fmt"
	"time"

	"repro/internal/puncture"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Observation is one per-probe outcome, both the unit streamed to a
// Sink while a session runs and the per-record shape of a finished
// Result. OK probes carry the tool-reported RTT (quirks included, as
// the paper defines the user-level measurement); failed probes carry
// Err on the live backend and OK=false everywhere.
type Observation struct {
	// Seq is the probe index within the session.
	Seq int
	// RTT is the tool-reported round-trip time (valid when OK).
	RTT time.Duration
	// OK reports whether the probe completed.
	OK bool
	// Err is the probe's failure cause on the live backend; simulated
	// backends report losses as OK=false with a nil Err.
	Err error
	// At is the probe's completion instant on the session clock:
	// virtual time on the simulated backends, offset from session start
	// on the live one.
	At time.Duration
}

// Sink receives per-probe observations as a session produces them.
// Simulated backends emit the stream in sequence order when the
// (virtual-time) run completes; the live backend emits each observation
// as its probe finishes, in real time. Implementations must not block
// for long — on the live backend they run on the measurement path.
type Sink interface {
	OnSample(Observation)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Observation)

// OnSample implements Sink.
func (f SinkFunc) OnSample(o Observation) { f(o) }

// Emit sends o to sink if sink is non-nil.
func Emit(sink Sink, o Observation) {
	if sink != nil {
		sink.OnSample(o)
	}
}

// Spec parameterises one measurement session. Backend and Method are
// required (a zero-value Spec is an error, never a panic); every other
// field has a sensible default, and fields irrelevant to the selected
// backend or method are ignored.
type Spec struct {
	// Backend names the environment: "sim", "live", or "cellular".
	// Required.
	Backend string
	// Method names the probing scheme: "acutemon", "ping", "httping",
	// "javaping", or "ping2". Required.
	Method string

	// K is the probe count (rounds, for ping2). 0 selects the method
	// default (100 on simulated backends, 10 on live).
	K int
	// Interval paces the comparison tools' probes (0 → 1 s, the
	// paper's default contrast to 10 ms). AcuteMon ignores it: its MT
	// is stop-and-wait.
	Interval time.Duration
	// Probe selects the probe mechanism: "tcp", "http", "udp", or
	// "icmp" ("" → the method's default). Aliases from the older
	// per-package enums ("tcp-syn", "tcp-connect", "http-get",
	// "udp-echo", "icmp-echo") are accepted.
	Probe string
	// Timeout abandons an unanswered probe (0 → 2 s).
	Timeout time.Duration

	// AcuteMon scheme parameters (§4.1): warm-up delay dpre, background
	// interval db, TTL on wake-keeping packets, and the BT kill switch.
	WarmupDelay        time.Duration
	BackgroundInterval time.Duration
	BackgroundTTL      int
	NoBackground       bool

	// Simulated-backend environment (sim and cellular).
	//
	// Phone is the device model (Table 1 name; "" → Nexus 5). Seed
	// keys the simulation (0 → 1). EmulatedRTT is the tc-style path
	// delay on sim and the operator-core RTT on cellular (0 → 30 ms).
	// Settle idles the phone before measuring so it dozes like a real
	// pocket phone (0 → 300 ms).
	Phone       string
	Seed        int64
	EmulatedRTT time.Duration
	Settle      time.Duration
	// CrossTraffic enables the §4.3 iPerf load (sim only).
	CrossTraffic bool
	// DisablePSM / DisableBusSleep pin the radio / host bus awake
	// (ablation arms, sim only).
	DisablePSM      bool
	DisableBusSleep bool
	// PSMTimeout overrides the phone profile's nominal Tip (sim only).
	PSMTimeout time.Duration

	// Radio selects the cellular RRC model: "umts" (default) or "lte".
	Radio string

	// Live-backend environment: Target is the measurement server
	// "host:port" (required on live); WarmupAddr receives the
	// TTL-limited background datagrams ("" → target host, discard
	// port 9).
	Target     string
	WarmupAddr string

	// Testbed, when non-nil, supplies a pre-built simulated rig to the
	// sim backend instead of building one from the fields above. It
	// keeps workflows that need rig access (pcap export, calibration,
	// layer extraction on the same capture) on the unified pipeline.
	Testbed *testbed.Testbed

	// Sink, when non-nil, receives one Observation per probe.
	Sink Sink

	// Knowledge, when non-nil, receives the session's per-layer
	// attribution after a successful run: Run analyzes the capture and
	// folds Δdu−k / Δdk−n / PSM-share means into the device-knowledge
	// store under the session's phone model (see FeedKnowledge). Only
	// the sim backend has a capture to attribute; elsewhere this is a
	// no-op. Callers that skip Knowledge keep the deferred-analysis
	// fast path.
	Knowledge *puncture.Store
}

// Environment defaults, exported as the single source of truth: the
// fleet campaign layer derives statistics (inflation = mean du ÷ path
// RTT) from the same values the simulation ran with, so it fills its
// session views from these constants rather than re-declaring them.
const (
	// DefaultPhone is the paper's root-cause device.
	DefaultPhone = "Google Nexus 5"
	// DefaultEmulatedRTT mirrors the paper's 30 ms tc setup (the
	// operator-core RTT on cellular).
	DefaultEmulatedRTT = 30 * time.Millisecond
	// DefaultSettle idles the phone before measuring so it dozes like
	// a pocketed one.
	DefaultSettle = 300 * time.Millisecond
	// DefaultRadio selects the UMTS RRC model.
	DefaultRadio = "umts"
)

// fill applies the backend- and method-independent defaults.
func (s *Spec) fill() {
	if s.Interval <= 0 {
		s.Interval = time.Second
	}
	if s.Timeout <= 0 {
		s.Timeout = 2 * time.Second
	}
	if s.Phone == "" {
		s.Phone = DefaultPhone
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.EmulatedRTT == 0 {
		s.EmulatedRTT = DefaultEmulatedRTT
	}
	if s.Settle == 0 {
		s.Settle = DefaultSettle
	}
	if s.Radio == "" {
		s.Radio = DefaultRadio
	}
}

// Probe mechanism names, canonical across backends.
const (
	ProbeTCP  = "tcp"
	ProbeHTTP = "http"
	ProbeUDP  = "udp"
	ProbeICMP = "icmp"
)

// CanonicalProbe maps a probe name (or an alias from the older
// per-package enums) to its canonical form. "" stays "" — the method
// picks its own default.
func CanonicalProbe(name string) (string, error) {
	switch name {
	case "":
		return "", nil
	case ProbeTCP, "tcp-syn", "tcp-connect":
		return ProbeTCP, nil
	case ProbeHTTP, "http-get":
		return ProbeHTTP, nil
	case ProbeUDP, "udp-echo":
		return ProbeUDP, nil
	case ProbeICMP, "icmp-echo":
		return ProbeICMP, nil
	default:
		return "", fmt.Errorf("session: unknown probe mechanism %q (want tcp|http|udp|icmp)", name)
	}
}

// Layers is the per-layer RTT attribution of a simulated session,
// extracted from the testbed's merged sniffer capture in one walk: the
// user/kernel/network samples of the paper's §3 plus the derived Δdu−k
// (user-space share) and Δdk−n (host-bus share) of Figures 3 and 7.
type Layers struct {
	// Du is the tool-reported user-level RTT, quirks included.
	Du stats.Sample
	// Dk and Dn are the kernel- and network-level RTTs where the
	// capture could attribute them.
	Dk, Dn stats.Sample
	// DuK and DkN are Δdu−k and Δdk−n per probe.
	DuK, DkN stats.Sample
}

// Result is the canonical outcome of one session, shared by every
// (backend × method) pair.
type Result struct {
	// Backend and Method name the pair that produced the result.
	Backend, Method string

	// Records holds one Observation per resolved probe, in sequence
	// order — exactly the stream a Sink sees. On a cancelled run,
	// probes whose outcome was still undecided are absent (they are
	// neither ok nor lost, on every backend).
	Records []Observation
	// Sent and Lost account for all probes, including unanswered ones.
	// Lost is a plain field — the one canonical loss shape, replacing
	// the field-vs-method split the per-tool result types had.
	Sent, Lost int

	// BackgroundSent counts wake-keeping packets; TTLLimited reports
	// whether the live backend could apply the TTL=1 restriction.
	BackgroundSent int
	TTLLimited     bool

	// PSMActive reports power-save activity in the sim capture.
	// Populated by Analyze (capture analysis is deferred — it costs
	// more than the measurement itself on small runs).
	PSMActive bool
	// Layers carries per-layer attribution on the sim backend; nil
	// where no sniffers exist (live, cellular). Populated by Analyze.
	Layers *Layers

	// Raw is the backend-native result (*core.Result, *tools.Result,
	// *live.Result, *cellular.AcuteMonResult, …) for callers that need
	// tool-specific detail, such as the layer helpers that take the
	// native result and the testbed it ran on.
	Raw any

	// analyze is the deferred sim-capture analysis hook.
	analyze func() (*Layers, bool)
}

// DeferAnalysis installs the hook Analyze runs on demand. Sim method
// implementations use it so that walking the capture (per-layer
// extraction, PSM verdict) is only paid by callers that read the
// results.
func (r *Result) DeferAnalysis(f func() (*Layers, bool)) { r.analyze = f }

// Analyze runs the deferred capture analysis, populating Layers and
// PSMActive. Idempotent, a no-op on backends without a capture (live,
// cellular), and not safe for concurrent use with itself. Until it
// runs, the hook keeps the session's simulated rig (stacks, sniffers,
// capture) reachable — callers retaining many sim Results should call
// Analyze (which drops the hook) promptly.
func (r *Result) Analyze() *Result {
	if r.analyze != nil {
		f := r.analyze
		r.analyze = nil
		r.Layers, r.PSMActive = f()
	}
	return r
}

// Sample returns the RTTs of successful probes, in sequence order.
func (r *Result) Sample() stats.Sample {
	var s stats.Sample
	for _, o := range r.Records {
		if o.OK {
			s = append(s, o.RTT)
		}
	}
	return s
}

// LossRate returns Lost/Sent (0 when nothing was sent).
func (r *Result) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Lost) / float64(r.Sent)
}
