// Package acutemon is the public facade of this repository: a faithful
// reproduction of "Demystifying and Puncturing the Inflated Delay in
// Smartphone-based WiFi Network Measurement" (Li, Wu, Chang, Mok —
// CoNEXT 2016).
//
// The paper shows that the delay reported by smartphone measurement
// apps over WiFi is inflated by two energy-saving mechanisms — SDIO/SMD
// host-bus sleep inside the phone (§3.2.1) and 802.11 adaptive PSM
// between phone and AP (§3.2.2) — and presents AcuteMon, which defeats
// both by keeping the phone awake with a warm-up packet plus TTL=1
// background traffic while a native measurement thread probes.
//
// The public surface is one context-first pipeline:
//
//	res, err := acutemon.Run(ctx, acutemon.SessionSpec{
//	        Backend: "sim",       // or "live", "cellular"
//	        Method:  "acutemon",  // or "ping", "httping", "javaping", "ping2"
//	})
//
// where a Backend provides the environment (simulated Fig 2 rig, real
// sockets, cellular RRC testbed) and a Method provides the probing
// scheme, both resolvable by name (Methods / MethodByName, Backends /
// BackendByName). Every session is context-cancellable, error-returning,
// and can stream per-probe observations to a SessionSink. The fleet
// campaign layer (RunCampaign) schedules thousands of SessionSpecs over
// a worker pool — mixing methods and backends within one report — and
// the ingest service (StartIngest) aggregates session summaries at
// crowd scale.
//
// Also exported: NewTestbed (the simulated rig, for calibration, pcap
// export, and layer attribution on a shared capture — hand it to Run
// via SessionSpec.Testbed), Calibrate (the Tis/Tip training
// procedure), and the device-knowledge store (KnowledgeStore) that
// carries calibrations and learned overheads across sessions,
// campaigns, and the ingest service. The experiments subpackage
// regenerates every table and figure.
package acutemon

import (
	"context"

	"repro/internal/agg"
	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/live"
	"repro/internal/puncture"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tools"
)

// Unified Session API. One pipeline — Run(ctx, SessionSpec) — executes
// any registered probing method in any registered backend environment.
type (
	// SessionSpec parameterises one measurement session; Backend and
	// Method are required, everything else defaults.
	SessionSpec = session.Spec
	// SessionResult is the canonical outcome shared by every
	// (backend × method) pair: per-probe Records, plain Sent/Lost
	// fields, background-traffic accounting, and (on sim) per-layer
	// attribution.
	SessionResult = session.Result
	// SessionObservation is one per-probe outcome, both a Result
	// record and the unit streamed to a SessionSink.
	SessionObservation = session.Observation
	// SessionSink receives per-probe observations as a session runs.
	SessionSink = session.Sink
	// SessionSinkFunc adapts a function to SessionSink.
	SessionSinkFunc = session.SinkFunc
	// SessionLayers is a sim session's per-layer RTT attribution
	// (du/dk/dn plus Δdu−k and Δdk−n).
	SessionLayers = session.Layers
	// SessionMethod is a named probing scheme.
	SessionMethod = session.Method
	// SessionBackend is a named environment provider.
	SessionBackend = session.Backend
)

// ErrUnsupported marks a (backend × method) pair that cannot run; test
// with errors.Is.
var ErrUnsupported = session.ErrUnsupported

// Run executes one measurement session: resolve spec.Backend and
// spec.Method by name, build the environment, run the scheme. The
// single entry point behind the fleet campaign scheduler and the CLIs.
// A cancelled ctx aborts the run and returns the partial result
// alongside ctx's error.
func Run(ctx context.Context, spec SessionSpec) (*SessionResult, error) {
	return session.Run(ctx, spec)
}

// Methods lists the registered probing schemes (acutemon, ping,
// httping, javaping, ping2), sorted by name.
func Methods() []SessionMethod { return session.Methods() }

// MethodByName resolves a probing scheme by name.
func MethodByName(name string) (SessionMethod, bool) { return session.MethodByName(name) }

// Backends lists the registered environments (cellular, live, sim),
// sorted by name.
func Backends() []SessionBackend { return session.Backends() }

// BackendByName resolves an environment by name.
func BackendByName(name string) (SessionBackend, bool) { return session.BackendByName(name) }

// Re-exported types. The implementation lives in internal packages; the
// aliases below form the supported public surface.
type (
	// Testbed is the simulated Fig 2 rig.
	Testbed = testbed.Testbed
	// TestbedConfig parameterises a testbed.
	TestbedConfig = testbed.Config
	// Phone is an assembled simulated smartphone.
	Phone = android.Phone
	// Profile describes one of the paper's five phones.
	Profile = android.Profile
	// Result is an AcuteMon run result.
	Result = core.Result
	// Calibration carries inferred Tis/Tip values.
	Calibration = core.Calibration
	// CalibrateOptions tunes calibration.
	CalibrateOptions = core.CalibrateOptions
	// ToolResult is a comparison-tool run result.
	ToolResult = tools.Result
	// LiveResult is a real-socket measurement result.
	LiveResult = live.Result
	// Sample is a set of duration observations with the paper's
	// statistics (mean ±CI, boxplot, ECDF) attached.
	Sample = stats.Sample
)

// DefaultTestbedConfig returns a Nexus 5 testbed with a 30 ms emulated
// path, mirroring the paper's root-cause setup.
func DefaultTestbedConfig() TestbedConfig { return testbed.DefaultConfig() }

// NewTestbed assembles a simulated testbed.
func NewTestbed(cfg TestbedConfig) *Testbed { return testbed.New(cfg) }

// Profiles lists the five phones of the paper's Table 1.
func Profiles() []Profile { return android.Profiles() }

// ProfileByName resolves a phone model name ("Nexus 5", "nexus4", …).
func ProfileByName(name string) (Profile, bool) { return android.ProfileByName(name) }

// Calibrate infers the phone's Tis and Tip (the paper's future-work
// training procedure) from sniffer and user-level observations only.
func Calibrate(tb *Testbed, opts CalibrateOptions) Calibration { return core.Calibrate(tb, opts) }

// Overheads extracts Δdu−k and Δdk−n samples for an AcuteMon result —
// the quantities of the paper's Figure 7.
func Overheads(tb *Testbed, res *Result) (duk, dkn Sample) {
	return core.OverheadStats(tb, res)
}

// ToolLayerSamples extracts du/dk/dn samples for a tool run.
func ToolLayerSamples(tb *Testbed, res *ToolResult) (du, dk, dn Sample) {
	return tools.LayerSamples(tb, *res)
}

// StartLiveServers starts the loopback-testable live measurement target
// (TCP connect/HTTP + UDP echo).
func StartLiveServers(addr string) (*live.Servers, error) { return live.StartServers(addr) }

// RegistryEntry is one phone model's calibrated parameters — an entry
// of a -registry file and the unit KnowledgeStore.RecordCalibration
// and Calibration speak.
type RegistryEntry = puncture.CalEntry

// Fleet-scale campaign surface. A Campaign runs hundreds to thousands
// of independent simulated measurement sessions on a bounded worker
// pool and streams per-session summaries into mergeable campaign
// aggregates.
type (
	// Campaign configures a concurrent measurement campaign.
	Campaign = fleet.Campaign
	// CampaignSession specifies one session of a campaign.
	CampaignSession = fleet.Session
	// CampaignSessionResult summarizes one finished session.
	CampaignSessionResult = fleet.SessionResult
	// CampaignReport is the merged result of a campaign.
	CampaignReport = fleet.Report
	// CampaignScenario is a named campaign preset.
	CampaignScenario = fleet.Scenario
	// CampaignParams sizes a scenario-built campaign.
	CampaignParams = fleet.Params
)

// RunCampaignContext executes a fleet campaign under ctx and returns
// the merged report; cancellation stops dispatch at the next session
// boundary and yields a partial report with Interrupted set.
func RunCampaignContext(ctx context.Context, c Campaign) (*CampaignReport, error) {
	return fleet.RunContext(ctx, c)
}

// RunCampaign executes a fleet campaign and returns the merged report.
// A context, if any, rides Campaign.Context; RunCampaignContext takes
// it as an argument instead.
func RunCampaign(c Campaign) (*CampaignReport, error) {
	return fleet.RunContext(c.Context, c)
}

// CampaignScenarios lists the built-in campaign presets (device-model
// mixes, cross-traffic levels, PSM timer sweeps, RTT sweeps).
func CampaignScenarios() []CampaignScenario { return fleet.Scenarios() }

// CampaignScenarioByName resolves a preset by name.
func CampaignScenarioByName(name string) (CampaignScenario, bool) {
	return fleet.ScenarioByName(name)
}

// Mergeable streaming aggregates (shared by fleet campaign reports and
// the ingest store): Welford moments, fixed-range histograms, and
// t-digest-style quantile sketches whose chunked partial results merge
// into whole-sample totals (exactly for moments and histogram counts,
// within a documented rank-error bound for sketch quantiles).
type (
	// Moments is a mergeable count/mean/variance/min/max accumulator.
	Moments = agg.Moments
	// Hist is a mergeable fixed-range duration histogram.
	Hist = agg.Hist
	// Sketch is a mergeable streaming quantile sketch with exact
	// min/max and tail-tight error — the percentile source behind
	// campaign reports and ingest /stats.
	Sketch = agg.Sketch
	// StreamingSummary accumulates Sample.Summarize-shaped statistics
	// without retaining observations: moments stream exactly,
	// percentiles through a Sketch.
	StreamingSummary = stats.Streaming
)

// NewSketch returns an empty quantile sketch (compression <= 0 selects
// the default; larger means more centroids and tighter quantiles).
func NewSketch(compression float64) *Sketch { return agg.NewSketch(compression) }

// NewStreamingSummary returns an empty streaming summary accumulator.
func NewStreamingSummary() *StreamingSummary { return stats.NewStreaming(0) }

// Crowd-scale ingestion surface. An IngestServer accepts batched
// per-session summaries over HTTP, punctures every reported RTT online
// against the calibration database, and serves raw-vs-corrected
// windowed aggregates at /stats, /models, and /healthz.
type (
	// IngestConfig parameterises an ingest server.
	IngestConfig = ingest.Config
	// IngestServer is a running ingestion + query service.
	IngestServer = ingest.Server
	// IngestSummary is the per-session wire record devices post.
	IngestSummary = ingest.Summary
	// IngestLoadGen streams fleet campaigns (or recorded reports)
	// through the wire protocol.
	IngestLoadGen = ingest.LoadGen
	// IngestRollup selects the /stats aggregation dimensions.
	IngestRollup = ingest.Rollup
)

// StartIngest starts an ingest server; stop it with Shutdown (which
// drains in-flight batches).
func StartIngest(cfg IngestConfig) (*IngestServer, error) { return ingest.Start(cfg) }

// Device-knowledge surface: the persistent, mergeable store fusing
// calibrated energy-saving timers (the paper's §4.1 configuration
// database) with the crowd-learned per-model overhead profiles, keyed
// by model and WiFi chipset family. One store serves every layer: the
// ingest service punctures live traffic from it, fleet campaigns teach
// it and emit mergeable deltas, and sessions feed it via
// SessionSpec.Knowledge.
type (
	// KnowledgeStore is the lock-striped device-knowledge store.
	KnowledgeStore = puncture.Store
	// DeviceProfile is one model's fused knowledge: calibrated timers
	// + learned overhead moments/sketch + sample counts and epoch.
	DeviceProfile = puncture.DeviceProfile
	// KnowledgeSnapshot is the store's canonical serialized form.
	KnowledgeSnapshot = puncture.Snapshot
	// CorrectionSource labels a correction's resolution-ladder rung:
	// reported → learned → chipset family → global prior → none.
	CorrectionSource = puncture.Source
)

// Correction provenance, from strongest to weakest.
const (
	CorrectionNone     = puncture.SourceNone
	CorrectionReported = puncture.SourceReported
	CorrectionLearned  = puncture.SourceLearned
	CorrectionFamily   = puncture.SourceFamily
	CorrectionGlobal   = puncture.SourceGlobal
)

// NewKnowledgeStore returns an empty device-knowledge store (shards <
// 1 selects the default stripe count).
func NewKnowledgeStore(shards int) *KnowledgeStore { return puncture.NewStore(shards) }

// LoadKnowledge builds a store from a snapshot file; a missing file
// returns an empty store with found == false (a clean first boot).
func LoadKnowledge(path string, shards int) (st *KnowledgeStore, found bool, err error) {
	return puncture.LoadFile(path, shards)
}

// FeedKnowledge folds a finished session's per-layer attribution into
// the store under the spec's phone model (and chipset family); returns
// false when the session had nothing extractable. Equivalent to
// setting SessionSpec.Knowledge before Run.
func FeedKnowledge(st *KnowledgeStore, spec SessionSpec, res *SessionResult) bool {
	return session.FeedKnowledge(st, spec, res)
}
