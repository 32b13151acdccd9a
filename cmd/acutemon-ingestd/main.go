// Command acutemon-ingestd runs the crowd-scale ingestion + live
// puncturing service: devices POST per-session measurement summaries
// (JSON lines or the framed binary wire, batched) to /v1/ingest — or
// stream binary frames to the raw TCP listener (-tcp-addr); every
// reported RTT is punctured online against the calibration database and
// folded — raw and corrected side by side — into time-windowed
// aggregates served at /stats, /v1/stream, /v1/profiles, and /healthz.
//
// Usage:
//
//	acutemon-ingestd [-addr 127.0.0.1:7777] [-tcp-addr host:port] [-window 1m]
//	                 [-queue 256] [-fold-workers 0] [-max-conns 512]
//	                 [-profiles knowledge.json] [-pprof 127.0.0.1:6060]
//	acutemon-ingestd -peers http://b:7777,http://c:7777 [-gossip-interval 1s]
//	                 [-node-id a] — serve fleet-wide aggregates from a gossip cluster
//	acutemon-ingestd -loadgen [-scenario device-mix] [-sessions 1000]
//	                 [-probes 100] [-rtt 30ms] [-seed 1] [-batch 100]
//	                 [-wire json|binary|tcp] [-workers 0] [-target http://host:port]
//	acutemon-ingestd -replay report.json [-wire json|binary|tcp] [-target http://host:port]
//	acutemon-ingestd -churn 20 [-churn-keys 100] [-max-cells 100] [-window 1s] [-retention 3s]
//
// The default mode serves until SIGINT/SIGTERM, then drains in-flight
// batches and prints the final aggregate table. -loadgen demonstrates
// the whole pipeline in one command: a seeded fleet campaign streams
// through the real wire protocol into a live ingestd (embedded loopback
// unless -target points elsewhere), and the queried aggregates are
// checked against the offline campaign report for the same seed.
// -replay streams a recorded cmd/acutemon-fleet -json report instead of
// simulating.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "listen address")
	window := flag.Duration("window", time.Minute, "aggregation window width (0 disables time bucketing)")
	queue := flag.Int("queue", 256, "batch queue depth (full queue sheds with 503)")
	foldWorkers := flag.Int("fold-workers", 0, "fold worker count (0 = GOMAXPROCS)")
	maxConns := flag.Int("max-conns", 512, "max concurrently accepted connections")
	tcpAddr := flag.String("tcp-addr", "", "raw binary-wire TCP listen address (empty disables; see README Wire formats)")
	maxCells := flag.Int64("max-cells", 0, "distinct aggregation cell cap (0 = default, negative = uncapped)")
	retention := flag.Duration("retention", 0, "compact windows older than this into rollups (0 = 24h, negative = keep forever)")
	compactWindow := flag.Duration("compact-window", 0, "rollup window width expired cells merge into (0 = 10x window; must not be negative)")
	streamInterval := flag.Duration("stream-interval", 0, "/v1/stream broadcast coalescing interval (0 = 100ms)")
	maxSubscribers := flag.Int("max-subscribers", 0, "max concurrent /v1/stream clients (0 = 64)")
	profilesPath := flag.String("profiles", "", "device-knowledge snapshot: loaded on boot, snapshotted atomically while serving, saved on drain (learned overheads survive restarts)")
	profilesInterval := flag.Duration("profiles-interval", time.Minute, "periodic knowledge-snapshot cadence with -profiles (negative disables the periodic saver)")
	peers := flag.String("peers", "", "comma-separated peer base URLs — join a gossip cluster and serve fleet-wide aggregates (see README Cluster mode)")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "anti-entropy pull cadence per peer with -peers")
	nodeID := flag.String("node-id", "", "stable cluster identity with -peers (default: the bound listen address)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables; keep it loopback or firewalled — the profiles expose internals)")

	loadgen := flag.Bool("loadgen", false, "run a fleet campaign through the wire protocol and verify the aggregates")
	scenario := flag.String("scenario", "device-mix", "loadgen campaign preset")
	sessions := flag.Int("sessions", 1000, "loadgen session count")
	workers := flag.Int("workers", 0, "loadgen campaign workers (0 = GOMAXPROCS)")
	probes := flag.Int("probes", 100, "loadgen probes per session")
	rtt := flag.Duration("rtt", 30*time.Millisecond, "loadgen base emulated path RTT")
	seed := flag.Int64("seed", 1, "loadgen campaign seed")
	batch := flag.Int("batch", 100, "loadgen summaries per POST")
	wire := flag.String("wire", ingest.WireJSON, "loadgen/replay wire: json, binary (HTTP), or tcp (raw binary)")
	target := flag.String("target", "", "loadgen/replay target base URL — host:port with -wire=tcp (default: embedded loopback server)")
	replayPath := flag.String("replay", "", "replay a recorded campaign report (cmd/acutemon-fleet -json) through the wire")
	churn := flag.Int("churn", 0, "run N rounds of rotating-key churn through an embedded server and verify bounded-memory lossless retention")
	churnKeys := flag.Int("churn-keys", 100, "distinct device identities per churn round")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal behavior once the first signal lands, so a
	// second Ctrl-C force-quits a wedged drain instead of being
	// swallowed.
	context.AfterFunc(ctx, stop)

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	cfg := ingest.Config{
		Addr:             *addr,
		TCPAddr:          *tcpAddr,
		Window:           *window,
		QueueDepth:       *queue,
		FoldWorkers:      *foldWorkers,
		MaxConns:         *maxConns,
		MaxCells:         *maxCells,
		Retention:        *retention,
		CompactWindow:    *compactWindow,
		StreamInterval:   *streamInterval,
		MaxSubscribers:   *maxSubscribers,
		ProfilesPath:     *profilesPath,
		ProfilesInterval: *profilesInterval,
	}
	if *window == 0 {
		cfg.Window = -1
	}

	switch {
	case *churn > 0:
		runChurn(ctx, cfg, *churn, *churnKeys, *batch, *wire)
	case *replayPath != "":
		runReplay(ctx, cfg, *replayPath, *target, *batch, *wire)
	case *loadgen:
		runLoadgen(ctx, cfg, loadgenSpec{
			scenario: *scenario, sessions: *sessions, workers: *workers,
			probes: *probes, rtt: *rtt, seed: *seed, batch: *batch,
			target: *target, wire: *wire, profiles: *profilesPath,
		})
	default:
		serve(ctx, cfg, cluster.Config{
			NodeID:   *nodeID,
			Peers:    splitPeers(*peers),
			Interval: *gossipInterval,
		})
	}
}

// startPprof serves the net/http/pprof handlers on their own listener
// and mux, fully separate from the ingest surface: the debug endpoints
// never share a port with device traffic, and leaving -pprof unset (the
// default) means the handlers are not reachable at all. Registration is
// explicit rather than via the package's DefaultServeMux side effect so
// nothing else accidentally rides along. The listener lives for the
// process — profiling a drain is exactly when it is most useful — and
// dies with it.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("pprof: %v", err)
	}
	fmt.Printf("pprof listening on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "pprof:", err)
		}
	}()
}

// splitPeers parses the -peers list; empty entries are dropped so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// serve runs the daemon until the context is cancelled (SIGINT or
// SIGTERM), then drains and prints the final aggregates. A non-empty
// peer list joins the gossip cluster after the server is up, so
// /stats, /v1/stream, and /v1/profiles answer for the whole fleet.
func serve(ctx context.Context, cfg ingest.Config, ccfg cluster.Config) {
	s, err := ingest.Start(cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("acutemon-ingestd listening on %s (POST /v1/ingest /v1/profiles; GET /v1/profiles /stats /v1/stream /metrics /healthz)\n", s.Addr())
	if cfg.ProfilesPath != "" {
		st := s.Puncturer().Store()
		fmt.Printf("device knowledge at %s: %d profiles (%d calibrated) on boot\n",
			cfg.ProfilesPath, st.Len(), st.CalibratedLen())
	}
	var node *cluster.Node
	if len(ccfg.Peers) > 0 {
		node, err = cluster.Join(s, ccfg)
		if err != nil {
			fatal("cluster: %v", err)
		}
		fmt.Printf("cluster node %s gossiping with %d peer(s) every %s (GET /v1/cluster)\n",
			node.NodeID(), len(ccfg.Peers), ccfg.Interval)
	}
	<-ctx.Done()
	fmt.Println("signal received; draining in-flight batches…")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if node != nil {
		if err := node.Stop(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "cluster stop:", err)
		}
	}
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	printStats(s, ingest.RollupGroup)
}

// printStats renders the server's current aggregates plus counters.
func printStats(s *ingest.Server, by ingest.Rollup) {
	cellStats, err := s.Store().StatsQuery(by)
	if err != nil {
		fmt.Fprintln(os.Stderr, "query:", err)
		return
	}
	m := s.MetricsSnapshot()
	resp := ingest.StatsResponse{Rollup: by, Cells: cellStats, Counters: m}
	fmt.Print(ingest.RenderStats(resp))
	fmt.Printf("batches: %d accepted, %d shed (backpressure), %d malformed; summaries folded: %d (%d RTTs)\n",
		m["accepted_batches"], m["rejected_batches"], m["bad_batches"],
		m["folded_summaries"], m["folded_samples"])
	fmt.Printf("knowledge: %d learned profiles, %d cap rejections, %d fleet deltas merged, %d snapshots saved\n",
		m["learned_models"], m["profile_rejections"], m["profile_merges"], m["profile_saves"])
}

type loadgenSpec struct {
	scenario string
	sessions int
	workers  int
	probes   int
	rtt      time.Duration
	seed     int64
	batch    int
	target   string
	wire     string
	// profiles is the -profiles knowledge file the campaign reads
	// calibrations from ("" → none).
	profiles string
}

// loadgenCampaign builds the seeded campaign a -loadgen run streams.
// With -profiles the campaign reads calibrations from its own store,
// loaded from the file the server boots from: sharing the server's
// store would teach it every attribution twice (once by the fleet, once
// by ingest) and make the server's corrections depend on that
// interleaving.
func loadgenCampaign(spec loadgenSpec) fleet.Campaign {
	sc, ok := fleet.ScenarioByName(spec.scenario)
	if !ok {
		fatal("unknown scenario %q; see acutemon-fleet -list", spec.scenario)
	}
	c := fleet.Campaign{
		Name:     spec.scenario,
		Scenario: spec.scenario,
		Seed:     spec.seed,
		Workers:  spec.workers,
		Sessions: sc.Build(fleet.Params{
			Sessions: spec.sessions, Seed: spec.seed, Probes: spec.probes, BaseRTT: spec.rtt,
		}),
	}
	if spec.profiles != "" {
		st, _, err := puncture.LoadFile(spec.profiles, 0)
		if err != nil {
			fatal("profiles: %v", err)
		}
		c.Profiles = st
	}
	return c
}

// runLoadgen streams a seeded campaign through the real wire protocol
// and, when the server is embedded, verifies the queried aggregates
// against the campaign's own offline report.
func runLoadgen(ctx context.Context, cfg ingest.Config, spec loadgenSpec) {
	campaign := loadgenCampaign(spec)
	url, embedded := spec.target, (*ingest.Server)(nil)
	lg := &ingest.LoadGen{URL: url, Wire: spec.wire, BatchSize: spec.batch}
	defer lg.Close()
	if url == "" {
		cfg.Window = -1 // one window, so the comparison is exact
		embedded, lg.URL = startEmbedded(cfg, spec.wire)
		// Pin event time only for the embedded determinism check; a
		// remote target gets real wall-clock stamps so its windows form
		// a live time series.
		lg.TimeMS = 1
		fmt.Printf("embedded ingestd on %s (%s wire)\n", lg.URL, spec.wire)
	}
	start := time.Now()
	rep, err := lg.StreamCampaign(ctx, campaign)
	// A signal mid-campaign cancels ctx: the campaign drains into a
	// partial report and the trailing flush fails with context.Canceled.
	// That is the promised graceful path — print the partial aggregates
	// instead of dying — while any other send error is fatal.
	interrupted := ctx.Err() != nil || (rep != nil && rep.Interrupted)
	if err != nil && !(interrupted && errors.Is(err, context.Canceled)) {
		fatal("loadgen: %v", err)
	}
	wall := time.Since(start)
	fmt.Printf("streamed %d session summaries in %v (%.0f summaries/s wire rate)\n",
		lg.Sent(), wall.Round(time.Millisecond), float64(lg.Sent())/wall.Seconds())
	if interrupted {
		fmt.Println("campaign interrupted: partial stream; verification skipped")
	}

	if embedded == nil {
		fmt.Printf("remote target %s; fetch %s/stats?format=table for aggregates\n", url, url)
		fmt.Print(rep.Render())
		return
	}
	drain(embedded)
	printStats(embedded, ingest.RollupGroup)
	if !interrupted {
		verify(embedded, rep)
	}
}

// verify compares the ingested per-group aggregates against the
// campaign's offline report — the determinism demonstration, sharing
// the acceptance test's checker.
func verify(s *ingest.Server, rep *fleet.Report) {
	mismatches, maxMeanRel := ingest.VerifyAgainstReport(s.Store(), rep)
	if len(mismatches) > 0 {
		for _, m := range mismatches {
			fmt.Println("MISMATCH", m)
		}
		fmt.Printf("verification FAILED: %d mismatch(es) between ingested and offline aggregates\n", len(mismatches))
		os.Exit(1)
	}
	fmt.Printf("verified: ingested aggregates match the offline campaign report for seed (%d groups; max mean drift %.2g relative)\n",
		len(rep.Groups), maxMeanRel)
}

// runChurn drives rotating device identities through an embedded
// server — the workload that used to grow the store without bound —
// and verifies bounded-memory lossless retention: resident fine cells
// stay at the cap, expired windows compact into rollups, and every
// folded session stays queryable through the merged view.
func runChurn(ctx context.Context, cfg ingest.Config, rounds, keys, batch int, wire string) {
	// Tighten the timing defaults so rotation and expiry take seconds,
	// not hours; explicit -window/-retention/-max-cells still win.
	if cfg.Window == time.Minute {
		cfg.Window = time.Second
	}
	if cfg.Window <= 0 {
		fatal("churn needs time bucketing; drop -window 0")
	}
	if cfg.Retention == 0 {
		cfg.Retention = 3 * time.Second
	}
	if cfg.MaxCells == 0 {
		cfg.MaxCells = int64(keys)
	}
	s, url := startEmbedded(cfg, wire)
	fmt.Printf("embedded ingestd on %s (%s wire): churn %d rounds x %d keys, cap %d cells, window %v, retention %v\n",
		url, wire, rounds, keys, cfg.MaxCells, cfg.Window, cfg.Retention)
	lg := &ingest.LoadGen{URL: url, Wire: wire, BatchSize: batch}
	defer lg.Close()
	windowMS := cfg.Window.Milliseconds()
	// Start just inside the event-age clamp so the oldest windows
	// expire (and compact) seconds after ingest.
	startMS := time.Now().Add(-cfg.Retention).UnixMilli() + windowMS
	// One round per Churn call, letting the fold stage drain between
	// generations: real churn is paced by time, and eviction's
	// "strictly older window only" rule needs rounds to land in order —
	// blasting every generation into the queue at once would interleave
	// old summaries behind new cells and (correctly, visibly) drop them.
	posted := 0
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		n, err := lg.Churn(ctx, ingest.ChurnSpec{
			Rounds:  1,
			Keys:    keys,
			StartMS: startMS + int64(r)*windowMS,
			StepMS:  windowMS,
		})
		if err != nil {
			fatal("churn: %v", err)
		}
		posted += n
		waitDeadline := time.Now().Add(30 * time.Second)
		for s.MetricsSnapshot()["folded_summaries"]+s.Store().Dropped() < int64(posted) {
			if time.Now().After(waitDeadline) {
				fatal("churn: fold stage stalled at round %d", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
	fmt.Printf("streamed %d churn summaries\n", posted)

	// Wait for the folds, then for the janitor to compact the expired
	// windows and re-cap the fine tier.
	deadline := time.Now().Add(cfg.Retention + time.Duration(rounds)*cfg.Window + 30*time.Second)
	steady := false
	for time.Now().Before(deadline) && ctx.Err() == nil {
		m := s.MetricsSnapshot()
		if m["folded_summaries"] == int64(posted) &&
			m["compacted_cells"]+m["evicted_cells"] > 0 &&
			s.Store().Cells() <= cfg.MaxCells {
			steady = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	drain(s)
	m := s.MetricsSnapshot()
	fmt.Printf("retention: %d cells resident (cap %d), %d rollups; compacted=%d evicted=%d sessions-demoted=%d cycles=%d\n",
		s.Store().Cells(), cfg.MaxCells, m["rollup_cells"],
		m["compacted_cells"], m["evicted_cells"], m["compacted_sessions"], m["compaction_cycles"])
	cells, err := s.Store().Query(ingest.RollupGroup)
	if err != nil {
		fatal("query: %v", err)
	}
	var total int64
	for _, c := range cells {
		total += c.Sessions
	}
	folded := m["folded_summaries"]
	switch {
	case !steady:
		fatal("churn FAILED: steady state not reached (folded=%d/%d cells=%d cap=%d compacted=%d evicted=%d)",
			folded, posted, s.Store().Cells(), cfg.MaxCells, m["compacted_cells"], m["evicted_cells"])
	case total != folded:
		fatal("churn FAILED: lossless retention violated: %d sessions queryable, %d folded", total, folded)
	default:
		fmt.Printf("churn PASSED: resident cells held at cap, %d/%d sessions preserved through compaction\n",
			total, folded)
	}
}

// runReplay streams a recorded campaign report through the wire.
func runReplay(ctx context.Context, cfg ingest.Config, path, target string, batch int, wire string) {
	f, err := os.Open(path)
	if err != nil {
		fatal("replay: %v", err)
	}
	rep, err := decodeReport(f)
	f.Close()
	if err != nil {
		fatal("replay %s: %v", path, err)
	}

	url, embedded := target, (*ingest.Server)(nil)
	if url == "" {
		embedded, url = startEmbedded(cfg, wire)
		fmt.Printf("embedded ingestd on %s (%s wire)\n", url, wire)
	}
	lg := &ingest.LoadGen{URL: url, Wire: wire, BatchSize: batch}
	defer lg.Close()
	posted, err := lg.ReplayReport(ctx, rep)
	if err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("replayed %d session summaries from %s (campaign %q, scenario %s)\n",
		posted, path, rep.Name, rep.Scenario)
	if embedded != nil {
		drain(embedded)
		printStats(embedded, ingest.RollupGroup)
	}
}

// startEmbedded starts the loopback server that -loadgen, -replay and
// -churn send to when no -target is given, with a raw TCP listener for
// -wire tcp. It returns the server and the address to send to over wire.
// The server reads the -profiles file into a store of its own but never
// writes it back: what it learns from synthetic traffic is no part of
// the operator's knowledge.
func startEmbedded(cfg ingest.Config, wire string) (*ingest.Server, string) {
	cfg.Addr = "127.0.0.1:0"
	if wire == ingest.WireTCP && cfg.TCPAddr == "" {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	if cfg.ProfilesPath != "" {
		st, _, err := puncture.LoadFile(cfg.ProfilesPath, 0)
		if err != nil {
			fatal("profiles: %v", err)
		}
		cfg.Profiles, cfg.ProfilesPath = st, ""
	}
	s, err := ingest.Start(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if wire == ingest.WireTCP {
		return s, s.TCPAddr()
	}
	return s, s.URL()
}

// drain shuts an embedded server down, giving in-flight batches up to
// 30 s to fold.
func drain(s *ingest.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
}

func decodeReport(r io.Reader) (*fleet.Report, error) {
	var rep fleet.Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	if len(rep.Groups) == 0 {
		return nil, fmt.Errorf("report has no groups")
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}
