package acutemon_test

// The Session API contract test: every registered (backend × method)
// pair goes through Run with one set of semantics — cancelled contexts
// abort cleanly, zero-value specs error instead of panicking, sinks see
// every probe, and the backend-native results and the knowledge store
// stay pinned to their signatures.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	acutemon "repro"
)

// Compile-time pins: the session pipeline and the device-knowledge
// store keep their contracts — a redesign that breaks any of these
// fails to build, not at runtime.
var (
	_ func(context.Context, acutemon.SessionSpec) (*acutemon.SessionResult, error) = acutemon.Run

	_ func(st *acutemon.KnowledgeStore) []acutemon.DeviceProfile                                   = (*acutemon.KnowledgeStore).Profiles
	_ func(st *acutemon.KnowledgeStore, e acutemon.RegistryEntry) error                            = (*acutemon.KnowledgeStore).RecordCalibration
	_ func(st *acutemon.KnowledgeStore, o *acutemon.KnowledgeStore) error                          = (*acutemon.KnowledgeStore).Merge
	_ func(st *acutemon.KnowledgeStore, m string) (acutemon.RegistryEntry, bool)                   = (*acutemon.KnowledgeStore).Calibration
	_ func(st *acutemon.KnowledgeStore, m, chip string) (time.Duration, acutemon.CorrectionSource) = (*acutemon.KnowledgeStore).Resolve
	_ func(st *acutemon.KnowledgeStore, path string) error                                         = (*acutemon.KnowledgeStore).SaveFile
)

func TestRegistriesComplete(t *testing.T) {
	wantMethods := []string{"acutemon", "httping", "javaping", "ping", "ping2"}
	methods := acutemon.Methods()
	if len(methods) != len(wantMethods) {
		t.Fatalf("Methods() = %d entries, want %v", len(methods), wantMethods)
	}
	for i, m := range methods {
		if m.Name() != wantMethods[i] {
			t.Errorf("method %d = %q, want %q", i, m.Name(), wantMethods[i])
		}
		if m.Description() == "" {
			t.Errorf("method %s has no description", m.Name())
		}
		if _, ok := acutemon.MethodByName(m.Name()); !ok {
			t.Errorf("MethodByName(%q) failed", m.Name())
		}
	}
	wantBackends := []string{"cellular", "live", "sim"}
	backends := acutemon.Backends()
	if len(backends) != len(wantBackends) {
		t.Fatalf("Backends() = %d entries, want %v", len(backends), wantBackends)
	}
	for i, b := range backends {
		if b.Name() != wantBackends[i] {
			t.Errorf("backend %d = %q, want %q", i, b.Name(), wantBackends[i])
		}
		if _, ok := acutemon.BackendByName(b.Name()); !ok {
			t.Errorf("BackendByName(%q) failed", b.Name())
		}
	}
	if _, ok := acutemon.MethodByName("traceroute"); ok {
		t.Error("unknown method resolved")
	}
	if _, ok := acutemon.BackendByName("satellite"); ok {
		t.Error("unknown backend resolved")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	ctx := context.Background()
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{}); err == nil {
		t.Error("zero-value spec accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "sim"}); err == nil {
		t.Error("missing method accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Method: "ping"}); err == nil {
		t.Error("missing backend accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "satellite", Method: "ping"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "sim", Method: "traceroute"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "sim", Method: "acutemon", Probe: "warp"}); err == nil {
		t.Error("unknown probe accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "live", Method: "ping"}); err == nil {
		t.Error("live spec without target accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "cellular", Method: "ping", Radio: "5g"}); err == nil {
		t.Error("unknown radio accepted")
	}
	if _, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "sim", Method: "acutemon", Phone: "Nokia 3310"}); err == nil {
		t.Error("unknown phone accepted")
	}
}

// TestRunCancelledContextEveryPair exercises every registered
// (backend × method) pair with an already-cancelled context: Run must
// return context.Canceled without building an environment, running a
// probe, or panicking.
func TestRunCancelledContextEveryPair(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range acutemon.Backends() {
		for _, m := range acutemon.Methods() {
			spec := acutemon.SessionSpec{Backend: b.Name(), Method: m.Name()}
			if b.Name() == "live" {
				// Never dialed: the cancelled ctx aborts first.
				spec.Target = "127.0.0.1:9"
			}
			res, err := acutemon.Run(ctx, spec)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s×%s: err = %v, want context.Canceled", b.Name(), m.Name(), err)
			}
			if res != nil {
				t.Errorf("%s×%s: got a result from a pre-cancelled run", b.Name(), m.Name())
			}
		}
	}
}

// countingSink counts observations and checks stream invariants.
type countingSink struct {
	n    int
	ok   int
	last int
}

func (c *countingSink) OnSample(o acutemon.SessionObservation) {
	c.n++
	c.last = o.Seq
	if o.OK {
		c.ok++
	}
}

// TestRunSimEveryMethod runs every method on the sim backend through
// Run with a counting sink: one observation per probe, records matching
// the stream, canonical Sent/Lost arithmetic, and per-layer attribution
// present.
func TestRunSimEveryMethod(t *testing.T) {
	for _, m := range acutemon.Methods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			sink := &countingSink{}
			res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
				Backend:  "sim",
				Method:   m.Name(),
				K:        5,
				Interval: 50 * time.Millisecond,
				Seed:     21,
				Sink:     sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != "sim" || res.Method != m.Name() {
				t.Errorf("result labeled %s×%s", res.Backend, res.Method)
			}
			if res.Sent != 5 {
				t.Errorf("sent = %d, want 5", res.Sent)
			}
			if sink.n != len(res.Records) {
				t.Errorf("sink saw %d observations, records hold %d", sink.n, len(res.Records))
			}
			if got := len(res.Sample()); got != sink.ok || got != res.Sent-res.Lost {
				t.Errorf("sample=%d sinkOK=%d sent-lost=%d", got, sink.ok, res.Sent-res.Lost)
			}
			if res.Analyze().Layers == nil || len(res.Layers.Du) == 0 {
				t.Error("sim session carries no layer attribution")
			}
			if !res.Analyze().PSMActive {
				t.Error("settled sim phone should show PSM activity (and Analyze must be idempotent)")
			}
			if res.Raw == nil {
				t.Error("backend-native result missing")
			}
		})
	}
}

// TestRunLiveEveryMethod runs every method on the live backend against
// the loopback measurement servers.
func TestRunLiveEveryMethod(t *testing.T) {
	srv, err := acutemon.StartLiveServers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, m := range acutemon.Methods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			sink := &countingSink{}
			res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
				Backend:            "live",
				Method:             m.Name(),
				Target:             srv.Addr(),
				WarmupAddr:         srv.Addr(),
				K:                  3,
				Interval:           time.Millisecond,
				WarmupDelay:        2 * time.Millisecond,
				BackgroundInterval: 5 * time.Millisecond,
				Sink:               sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent != 3 || res.Lost != 0 {
				t.Errorf("sent=%d lost=%d, want 3/0", res.Sent, res.Lost)
			}
			if sink.n != 3 || sink.ok != 3 {
				t.Errorf("sink saw %d/%d observations", sink.ok, sink.n)
			}
			if res.Analyze().Layers != nil {
				t.Error("live session claims layer attribution (no sniffers exist)")
			}
			for _, o := range res.Records {
				if o.RTT <= 0 || o.RTT > time.Second {
					t.Errorf("probe %d rtt = %v", o.Seq, o.RTT)
				}
			}
		})
	}
}

// TestRunCellular checks the cellular backend runs its sim-compatible
// methods and cleanly refuses the rest.
func TestRunCellular(t *testing.T) {
	for _, name := range []string{"acutemon", "ping"} {
		sink := &countingSink{}
		res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
			Backend:  "cellular",
			Method:   name,
			Radio:    "lte",
			K:        4,
			Interval: 100 * time.Millisecond,
			Seed:     3,
			Sink:     sink,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Sent != 4 || sink.n != 4 {
			t.Errorf("%s: sent=%d sink=%d, want 4/4", name, res.Sent, sink.n)
		}
		if got := len(res.Sample()); got != sink.ok {
			t.Errorf("%s: sample=%d sinkOK=%d", name, got, sink.ok)
		}
	}
	for _, name := range []string{"httping", "javaping", "ping2"} {
		_, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
			Backend: "cellular", Method: name, K: 2,
		})
		if !errors.Is(err, acutemon.ErrUnsupported) {
			t.Errorf("%s on cellular: err = %v, want ErrUnsupported", name, err)
		}
	}
	// The A/B ablation arm must be honoured on every backend: no
	// warm-up, no background stream.
	res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "cellular", Method: "acutemon", K: 3, NoBackground: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackgroundSent != 0 {
		t.Errorf("NoBackground cellular run sent %d background packets", res.BackgroundSent)
	}
}

// TestCalibratedSessionEndToEnd is the paper's closed loop on the path
// examples/calibration and cmd/acutemon take: calibrate the phone's
// demotion timers, then run an AcuteMon session with the recommended
// dpre/db. The calibrated run completes and keeps the overhead small.
func TestCalibratedSessionEndToEnd(t *testing.T) {
	prof, _ := acutemon.ProfileByName("Samsung Grand") // Tip=45ms
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Seed = 25
	cfg.Phone = prof
	cfg.EmulatedRTT = 85 * time.Millisecond
	tb := acutemon.NewTestbed(cfg)
	cal := acutemon.Calibrate(tb, acutemon.CalibrateOptions{})
	if cal.Tip == 0 {
		t.Fatal("calibration found no Tip")
	}
	sess, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", Testbed: tb, K: 60,
		WarmupDelay: cal.RecommendedWarmup, BackgroundInterval: cal.RecommendedInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Raw.(*acutemon.Result)
	if len(res.Sample()) < 55 {
		t.Fatalf("completed %d/60", len(res.Sample()))
	}
	duk, dkn := acutemon.Overheads(tb, res)
	if total := duk.Median() + dkn.Median(); total > 3500*time.Microsecond {
		t.Errorf("calibrated run median overhead = %v", total)
	}
}

// TestRunRawResults: a sim session on a caller-supplied testbed keeps
// the backend-native result in Raw, in the shapes the layer helpers
// (Overheads, ToolLayerSamples) take.
func TestRunRawResults(t *testing.T) {
	ctx := context.Background()
	cfg := acutemon.DefaultTestbedConfig()
	cfg.Seed = 77
	tb := acutemon.NewTestbed(cfg)
	tb.Sim.RunUntil(300 * time.Millisecond)
	sess, err := acutemon.Run(ctx, acutemon.SessionSpec{Backend: "sim", Method: "acutemon", Testbed: tb, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Raw.(*acutemon.Result)
	if len(res.Records) != 10 || res.Tool != "acutemon" {
		t.Fatalf("acutemon: %d records, tool %q", len(res.Records), res.Tool)
	}
	if res.BackgroundSent == 0 {
		t.Error("acutemon lost the BT accounting through the pipeline")
	}
	if duk, dkn := acutemon.Overheads(tb, res); len(duk) == 0 || len(dkn) == 0 {
		t.Error("acutemon result lost overhead extraction")
	}

	tb2 := acutemon.NewTestbed(acutemon.DefaultTestbedConfig())
	sess, err = acutemon.Run(ctx, acutemon.SessionSpec{
		Backend: "sim", Method: "ping", Testbed: tb2, K: 5, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ping := sess.Raw.(*acutemon.ToolResult)
	if ping.Tool != "ping" || ping.Sent != 5 {
		t.Fatalf("ping: tool=%q sent=%d", ping.Tool, ping.Sent)
	}
	if du, _, _ := acutemon.ToolLayerSamples(tb2, ping); len(du) == 0 {
		t.Error("ping result lost layer extraction")
	}
}

// TestKnowledgeStoreCalibrations: a calibration recorded in the store
// is visible as a DeviceProfile and round-trips through the knowledge
// file (SaveFile/LoadKnowledge).
func TestKnowledgeStoreCalibrations(t *testing.T) {
	st := acutemon.NewKnowledgeStore(0)
	e := acutemon.RegistryEntry{
		Model: "Pin Phone", Chipset: "BCM-pin",
		Tip: 200 * time.Millisecond, Tis: 300 * time.Millisecond,
		Warmup: 20 * time.Millisecond, Interval: 20 * time.Millisecond, Samples: 3,
	}
	if err := st.RecordCalibration(e); err != nil {
		t.Fatal(err)
	}
	p, ok := st.Lookup("Pin Phone")
	if !ok || p.CalEntry != e {
		t.Fatalf("calibration invisible as a profile: %+v", p)
	}
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, found, err := acutemon.LoadKnowledge(path, 0)
	if err != nil || !found {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if got, ok := back.Calibration("Pin Phone"); !ok || got != e {
		t.Fatalf("knowledge file round trip: %+v ok=%v", got, ok)
	}
}

// TestFeedKnowledgeFacade runs one sim session with a Knowledge store
// attached and confirms the attribution landed.
func TestFeedKnowledgeFacade(t *testing.T) {
	st := acutemon.NewKnowledgeStore(0)
	res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
		Backend: "sim", Method: "acutemon", K: 5, Seed: 3, Knowledge: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 5 {
		t.Fatalf("sent %d", res.Sent)
	}
	p, ok := st.Lookup("Google Nexus 5")
	if !ok || p.Sessions() != 1 || p.Chipset == "" {
		t.Fatalf("knowledge not fed: ok=%v %+v", ok, p)
	}
	if corr, src := st.Resolve("Google Nexus 5", ""); src != acutemon.CorrectionLearned || corr < 0 {
		t.Fatalf("resolve: %v/%v", corr, src)
	}
}

// TestRunMixedCampaign is the facade-level acceptance check that a
// fleet campaign can mix methods via SessionSpec-backed sessions.
func TestRunMixedCampaign(t *testing.T) {
	sc, ok := acutemon.CampaignScenarioByName("tool-mix")
	if !ok {
		t.Fatal("tool-mix scenario not exported")
	}
	rep, err := acutemon.RunCampaign(acutemon.Campaign{
		Name:     "mix",
		Scenario: "tool-mix",
		Seed:     9,
		Sessions: sc.Build(acutemon.CampaignParams{Sessions: 5, Seed: 9, Probes: 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 5 || rep.Errors != 0 {
		t.Fatalf("groups=%d errors=%d, want 5 method groups", len(rep.Groups), rep.Errors)
	}
}

// trippingCtx reports cancellation after its Err method has been
// consulted trip times — a deterministic way to land a cancellation in
// the middle of a virtual-time simulation drive (wall-clock timeouts
// would race the simulator).
type trippingCtx struct {
	context.Context
	calls, trip int
}

func (c *trippingCtx) Err() error {
	c.calls++
	if c.calls >= c.trip {
		return context.Canceled
	}
	return nil
}

// TestRunSimCancelledMidRun pins the partial-result contract on the sim
// backend: cancellation returns the probes that resolved, counts no
// unresolved probe as lost, and streams only completed probes to the
// sink — the same semantics the cellular backend documents.
func TestRunSimCancelledMidRun(t *testing.T) {
	sink := &countingSink{}
	ctx := &trippingCtx{Context: context.Background(), trip: 10}
	res, err := acutemon.Run(ctx, acutemon.SessionSpec{
		Backend:  "sim",
		Method:   "ping",
		K:        50,
		Interval: 50 * time.Millisecond,
		Seed:     5,
		Sink:     sink,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("mid-run cancellation must return the partial result")
	}
	if res.Sent >= 50 {
		t.Fatalf("sent = %d; cancellation landed after the whole run", res.Sent)
	}
	if res.Lost != 0 {
		t.Errorf("unresolved probes counted as lost: %d", res.Lost)
	}
	if sink.n != sink.ok {
		t.Errorf("sink streamed %d observations but only %d completed probes", sink.n, sink.ok)
	}
	if len(res.Records) != sink.n {
		t.Errorf("records=%d sink=%d; Records must equal the sink stream even on partials", len(res.Records), sink.n)
	}
	if got := len(res.Sample()); got != sink.ok {
		t.Errorf("sample=%d sinkOK=%d", got, sink.ok)
	}
}
