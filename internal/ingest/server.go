package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/puncture"
	"repro/internal/report"
)

// Config parameterises an ingest server.
type Config struct {
	// Addr is the listen address ("" → 127.0.0.1:0, i.e. loopback on an
	// ephemeral port — the test/benchmark default).
	Addr string
	// TCPAddr, when set, additionally opens a raw TCP listener speaking
	// back-to-back binary batch frames (see tcp.go) — the lowest-overhead
	// wire for long-lived device connections. "" disables it; ":0" binds
	// an ephemeral port.
	TCPAddr string
	// Window is the aggregation window width (0 → 1 minute; negative
	// disables time bucketing entirely).
	Window time.Duration
	// QueueDepth bounds outstanding decoded batches between the wire
	// handlers and the fold pipelines (<1 → 256). It is both the batch
	// credit pool and each pipe's buffer depth; exhaustion is
	// backpressure: posts get 503 + Retry-After instead of piling up.
	QueueDepth int
	// FoldWorkers is the number of per-core fold pipelines; summaries
	// are routed to pipelines by cell-key hash (<1 → GOMAXPROCS).
	FoldWorkers int
	// MaxConns bounds concurrently accepted TCP connections (<1 → 512).
	MaxConns int
	// MaxCells bounds distinct aggregation cells (0 → store default;
	// negative removes the cap). Summaries that would mint a cell past
	// the cap are dropped and counted, so key-cardinality abuse cannot
	// OOM the daemon.
	MaxCells int64
	// Retention is how long closed windows are kept at fine granularity
	// before the janitor compacts them into rollups (0 → 24h; negative
	// → keep forever). Irrelevant when time bucketing is off.
	Retention time.Duration
	// CompactWindow is the rollup window width expired fine cells merge
	// into (0 → 10× Window; negative is rejected by Start).
	// Counts/moments/histograms stay exact through compaction; sketch
	// quantiles keep the agg merge bound.
	CompactWindow time.Duration
	// StreamInterval is the /v1/stream broadcast coalescing interval
	// (0 → 100ms; negative broadcasts on every fold with no coalescing
	// delay — test/benchmark use).
	StreamInterval time.Duration
	// MaxSubscribers caps concurrent /v1/stream clients (<1 → 64);
	// past it new subscriptions get 503 + Retry-After, counted.
	MaxSubscribers int
	// Profiles, when non-nil, is the device-knowledge store the server
	// rides (nil → a fresh store): calibrated timers and learned
	// overheads side by side. It is served whole under /v1/profiles;
	// fleet deltas POSTed there merge into it.
	Profiles *puncture.Store
	// ProfilesPath, when set, persists the knowledge store: loaded (and
	// merged into the store) on boot if the file exists, snapshotted
	// atomically every ProfilesInterval, and saved once more on
	// Shutdown — so an ingestd restart preserves the learned overhead
	// table bit-for-bit.
	ProfilesPath string
	// ProfilesInterval is the periodic snapshot cadence when
	// ProfilesPath is set (0 → 1 minute; negative disables the periodic
	// saver, keeping only the load-on-boot and save-on-drain).
	ProfilesInterval time.Duration
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Window == 0 {
		c.Window = time.Minute
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.FoldWorkers < 1 {
		c.FoldWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConns < 1 {
		c.MaxConns = 512
	}
	if c.Retention == 0 {
		c.Retention = 24 * time.Hour
	}
	if c.CompactWindow == 0 {
		c.CompactWindow = 10 * c.Window
	}
	if c.StreamInterval == 0 {
		c.StreamInterval = 100 * time.Millisecond
	}
	if c.MaxSubscribers < 1 {
		c.MaxSubscribers = 64
	}
	if c.ProfilesInterval == 0 {
		c.ProfilesInterval = time.Minute
	}
}

// Batch caps, the same on every wire: one POST body or TCP frame reads
// at most maxBatchBytes (past it HTTP answers 413, split and re-post;
// TCP answers bad and drops the connection), and one batch decodes at
// most maxBatchSummaries records.
const (
	maxBatchBytes     = 8 << 20
	maxBatchSummaries = 10000
)

// Event-time clamp horizon: a phone's clock may drift or a batch may
// upload late, but beyond this the stamp is treated as hostile/broken
// and replaced with arrival time.
const (
	maxEventSkewMS = int64(5 * time.Minute / time.Millisecond)
	maxEventAgeMS  = int64(7 * 24 * time.Hour / time.Millisecond)
)

// Metrics are the server's monotonic operational counters, all safe to
// read concurrently. (Cell-cap drops live on the Store, the single
// source of truth surfaced via MetricsSnapshot.)
type Metrics struct {
	AcceptedBatches   atomic.Int64
	AcceptedSummaries atomic.Int64
	FoldedSummaries   atomic.Int64
	FoldedSamples     atomic.Int64
	RejectedBatches   atomic.Int64 // backpressure 503s
	BadBatches        atomic.Int64 // malformed 400s
	OversizedBatches  atomic.Int64 // 413s (client should split and retry)
	ProfileMerges     atomic.Int64 // fleet deltas accepted at POST /v1/profiles
	ProfileSaves      atomic.Int64 // knowledge snapshots written to disk
	ProfileSaveErrors atomic.Int64
	CompactionCycles  atomic.Int64 // janitor compact+cap passes completed
	StreamEvents      atomic.Int64 // /v1/stream deltas delivered (SSE + poll)
	StreamDropped     atomic.Int64 // stream clients dropped as gone/too slow
	StreamRejected    atomic.Int64 // stream subscriptions refused at the cap
	// FoldNanos backs the acutemon_fold_ns summary on /metrics: total
	// wall time the fold workers spent draining pipe jobs. Its count is
	// the sum of Server.foldJobs, so production fold latency (sum/count)
	// is observable without a profiler. Atomics, not a histogram — the
	// fold loop is the hottest path in the daemon.
	FoldNanos atomic.Int64
}

// Server is a running ingest + query service.
type Server struct {
	cfg     Config
	store   *Store
	punc    *Puncturer
	metrics Metrics
	// pipes are the per-core fold pipelines; credits is the shared
	// batch-credit pool bounding outstanding batches (see pipeline.go).
	pipes   []chan pipeJob
	credits chan struct{}
	// foldJobs[i] counts the jobs pipe i has drained; their sum is the
	// acutemon_fold_ns summary's count.
	foldJobs []atomic.Int64
	// bcast fans fold/compaction activity out to /v1/stream
	// subscribers.
	bcast *broadcaster
	ln    net.Listener
	http  *http.Server
	// mux is kept so the cluster layer can mount its endpoints after
	// Start (Server.Handle); repl is its replica source, installed via
	// SetReplicaSource — nil on every non-clustered server.
	mux    *http.ServeMux
	repl   atomic.Pointer[replicaHolder]
	tcpLn  net.Listener
	tcp    connSet
	tcpWG  sync.WaitGroup
	foldWG sync.WaitGroup
	// fresh holds accepted HTTP connections still in StateNew (no
	// request read yet). http.Server.Shutdown waits up to 5 s for such a
	// connection before treating it as idle, so Shutdown closes them.
	fresh connSet
	// inflight counts ingest handlers past the draining check. A plain
	// atomic (polled in Shutdown) rather than a WaitGroup: an abandoned
	// WaitGroup.Wait from a timed-out drain could race a later Add from
	// a straggling request into a "WaitGroup misuse" panic; an atomic
	// counter has no such failure mode.
	inflight  atomic.Int64
	closeOnce sync.Once
	// stop ends the maintenance loop; maintWG joins it.
	stop     chan struct{}
	stopOnce sync.Once
	maintWG  sync.WaitGroup
	started  time.Time
	// snapshotAt is when the knowledge snapshot on disk last matched
	// the store, in Unix ns: the boot (which loaded the file, or found
	// none) and then each successful save. 0 without ProfilesPath.
	snapshotAt atomic.Int64
	draining   atomic.Bool
	servErr    chan error
	// ageClampMS is the accepted event-time age horizon: never older
	// than the retention window, else a 202-accepted late batch would
	// fold into an already-expired window and be compacted before
	// anyone could query it at fine granularity.
	ageClampMS int64
}

// Start listens, spawns the fold workers, and begins serving. The
// returned server is live; stop it with Shutdown.
//
//acutemon:ignore AM005 bind-only constructor (the net.Listen is a local bind, not a wait); the server's lifecycle context lives in Shutdown(ctx)
func Start(cfg Config) (*Server, error) {
	if cfg.CompactWindow < 0 {
		return nil, fmt.Errorf("ingest: negative compact window %v (retention always compacts; 0 selects 10x the window)", cfg.CompactWindow)
	}
	cfg.fill()
	window := cfg.Window
	if window < 0 {
		window = 0
	}
	// One knowledge store serves the whole daemon.
	knowledge := cfg.Profiles
	if knowledge == nil {
		knowledge = puncture.NewStore(DefaultPunctureShards)
	}
	if cfg.ProfilesPath != "" {
		// ReadFile's error names the file, so only MergeSnapshot's
		// needs the path.
		snap, _, err := puncture.ReadFile(cfg.ProfilesPath)
		if err != nil {
			return nil, fmt.Errorf("ingest: profiles: %w", err)
		}
		if err := knowledge.MergeSnapshot(snap); err != nil {
			return nil, fmt.Errorf("ingest: profiles %s: %w", cfg.ProfilesPath, err)
		}
	}
	s := &Server{
		cfg:      cfg,
		store:    NewStore(window, DefaultStoreShards),
		punc:     NewPuncturerStore(knowledge),
		pipes:    make([]chan pipeJob, cfg.FoldWorkers),
		credits:  make(chan struct{}, cfg.QueueDepth),
		foldJobs: make([]atomic.Int64, cfg.FoldWorkers),
		stop:     make(chan struct{}),
		started:  time.Now(),
		servErr:  make(chan error, 1),
	}
	if cfg.ProfilesPath != "" {
		s.snapshotAt.Store(s.started.UnixNano())
	}
	for i := range s.pipes {
		s.pipes[i] = make(chan pipeJob, cfg.QueueDepth)
	}
	if cfg.MaxCells != 0 {
		s.store.SetMaxCells(cfg.MaxCells)
	}
	if window > 0 {
		s.store.EnableCompaction(cfg.CompactWindow)
	}
	s.bcast = newBroadcaster(cfg.StreamInterval, cfg.MaxSubscribers)
	s.ageClampMS = maxEventAgeMS
	if retMS := int64(cfg.Retention / time.Millisecond); window > 0 && retMS > 0 && retMS < s.ageClampMS {
		s.ageClampMS = retMS
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", cfg.Addr, err)
	}
	s.ln = &boundedListener{Listener: ln, sem: make(chan struct{}, cfg.MaxConns)}
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second, ConnState: s.trackFresh}

	s.foldWG.Add(cfg.FoldWorkers)
	for i := 0; i < cfg.FoldWorkers; i++ {
		go s.foldLoop(i)
	}
	if cfg.TCPAddr != "" {
		if err := s.startTCP(cfg.TCPAddr); err != nil {
			ln.Close()
			for _, p := range s.pipes {
				close(p)
			}
			return nil, err
		}
	}
	s.maintWG.Add(1)
	go s.maintain(window)
	go func() {
		if err := s.http.Serve(s.ln); err != nil && err != http.ErrServerClosed {
			s.servErr <- err
		}
	}()
	return s, nil
}

// maintain is the server's one maintenance loop, with a ticker per
// duty (a disabled duty's nil channel never fires). Compaction bounds a
// long-running daemon's memory: expired windows demote losslessly into
// rollup cells and the fine tier is re-capped globally, so the cell cap
// handles hostile key cardinality. Persistence snapshots the knowledge
// store atomically on a cadence, so a crash loses at most one interval
// of learning; the graceful path saves once more after the drain.
func (s *Server) maintain(window time.Duration) {
	defer s.maintWG.Done()
	var compact, persist <-chan time.Time
	if window > 0 && s.cfg.Retention > 0 {
		t := time.NewTicker(min(window, time.Minute))
		defer t.Stop()
		compact = t.C
	}
	if s.cfg.ProfilesPath != "" && s.cfg.ProfilesInterval > 0 {
		t := time.NewTicker(s.cfg.ProfilesInterval)
		defer t.Stop()
		persist = t.C
	}
	for {
		select {
		case <-compact:
			now := time.Now()
			cells, _ := s.store.Compact(now.Add(-s.cfg.Retention).UnixMilli())
			cells += s.store.EnforceCap(now.UnixMilli())
			s.metrics.CompactionCycles.Add(1)
			if cells > 0 {
				s.bcast.poke()
			}
		case <-persist:
			s.saveProfiles()
		case <-s.stop:
			return
		}
	}
}

// saveProfiles writes the knowledge snapshot to ProfilesPath, when one
// is set, and counts the save or its failure.
func (s *Server) saveProfiles() error {
	if s.cfg.ProfilesPath == "" {
		return nil
	}
	if err := s.punc.Store().SaveFile(s.cfg.ProfilesPath); err != nil {
		s.metrics.ProfileSaveErrors.Add(1)
		return err
	}
	s.metrics.ProfileSaves.Add(1)
	s.snapshotAt.Store(time.Now().UnixNano())
	return nil
}

// snapshotAge is how many whole seconds of learning the knowledge
// snapshot on disk lacks: the time since the boot load or the last
// successful save, and 0 without ProfilesPath.
func (s *Server) snapshotAge() int64 {
	at := s.snapshotAt.Load()
	if at == 0 {
		return 0
	}
	return int64(time.Since(time.Unix(0, at)).Seconds())
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL clients post to.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Store exposes the aggregate store (reads are snapshot-consistent per
// stripe).
func (s *Server) Store() *Store { return s.store }

// Puncturer exposes the live puncturing state.
func (s *Server) Puncturer() *Puncturer { return s.punc }

// Shutdown drains gracefully: stop accepting, let in-flight handlers
// finish, then drain the batch queue through the fold workers so every
// accepted summary lands in the store before the process exits. The
// context bounds the whole drain; if it expires while a slow client is
// still mid-POST, the queue is left open (the stalled handler may yet
// enqueue) and only the drain guarantee is lost, never process safety.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	// Join the maintenance loop: a compaction pass still running when
	// Shutdown returns could be caught mid-demotion by the caller's next
	// query, which would then count the demoted cell in its shard and
	// again in its rollup; and a slow periodic save finishing after the
	// final one below would rename a stale pre-drain snapshot over it.
	s.maintWG.Wait()
	// Drain the stream before http.Shutdown: SSE handlers hold their
	// connections open forever, so Shutdown would wait on them until its
	// context expired. The drain signal makes each handler flush its
	// final deltas, emit a drain event, and return.
	s.bcast.shutdown()
	// Stop the raw TCP wire first: close the listener, then force-close
	// live connections — their frame loops observe draining (answering
	// busy) or error out of the blocked read; either way they exit, and
	// any frame already past the draining check is in the inflight count
	// the poll below waits on.
	if s.tcpLn != nil {
		s.tcpLn.Close()
		s.tcp.closeAll()
	}
	// Close HTTP connections that never sent a request; trackFresh
	// closes any accepted after this sweep.
	s.fresh.closeAll()
	err := s.http.Shutdown(ctx)

	// Wait for every handler that got past the draining check before
	// closing the pipes: http.Shutdown returns early with the handler
	// still running when its context expires, and closing under a
	// pending pipe send would panic the process mid-drain.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() != 0 {
		select {
		case <-tick.C:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return err
		}
	}
	s.tcpWG.Wait()
	s.closeOnce.Do(func() {
		for _, p := range s.pipes {
			close(p)
		}
	})

	foldsDone := make(chan struct{})
	go func() {
		s.foldWG.Wait()
		close(foldsDone)
	}()
	select {
	case <-foldsDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	select {
	case serr := <-s.servErr:
		if err == nil {
			err = serr
		}
	default:
	}
	// Persist the knowledge store after the drain, so everything the
	// final batches taught survives the restart.
	if serr := s.saveProfiles(); err == nil {
		err = serr
	}
	return err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The increment must precede the draining check: Shutdown sets
	// draining before polling the counter, so any handler it misses is
	// one that will observe draining and never touch the pipes.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	// Dispatch on Content-Type: the framed binary wire rides the same
	// endpoint as JSON lines, so a device can switch wires without a
	// config change server-side.
	var batch []Summary
	var err error
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.EqualFold(strings.TrimSpace(ct), BinaryContentType) {
		batch, err = DecodeBinaryBatch(body, maxBatchSummaries, 0)
	} else {
		batch, err = DecodeBatch(body, maxBatchSummaries)
	}
	if err != nil {
		// An oversized batch is valid data that needs splitting, not
		// wire corruption — 413 tells the client to re-post in chunks
		// instead of discarding its summaries. Everything else —
		// corruption, caps like ErrFrameTooBig, validation — is a 400:
		// the frame itself is unacceptable, re-sending it won't help.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.OversizedBatches.Add(1)
			http.Error(w, fmt.Sprintf("batch exceeds %d bytes; split and re-post", maxBatchBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		s.metrics.BadBatches.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.enqueue(batch) {
		s.metrics.AcceptedBatches.Add(1)
		s.metrics.AcceptedSummaries.Add(int64(len(batch)))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		// strconv instead of Fprintf: the ack is written once per
		// accepted batch on the hottest handler, and fmt's interface
		// boxing shows up at fold speed.
		var ack [32]byte
		resp := append(ack[:0], `{"accepted":`...)
		resp = strconv.AppendInt(resp, int64(len(batch)), 10)
		w.Write(append(resp, '}', '\n'))
	} else {
		// Backpressure: the fold stage is behind; shed load at the edge
		// rather than buffering unboundedly.
		s.metrics.RejectedBatches.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusServiceUnavailable)
	}
}

// TrackStats is the derived view of one observation track (raw or
// punctured), in the paper's milliseconds. Percentiles come from the
// track's quantile sketch (unclamped, accurate past the histogram
// range); HistUnder/HistOver surface the fixed-range histogram's
// out-of-range mass, so a tail past 500 ms is visible in the schema.
type TrackStats struct {
	Samples  int64   `json:"samples"`
	MeanMS   float64 `json:"mean_ms"`
	StddevMS float64 `json:"stddev_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	// HistUnder / HistOver count observations outside the histogram's
	// [0, 500 ms) range.
	HistUnder int64 `json:"hist_under,omitempty"`
	HistOver  int64 `json:"hist_over,omitempty"`
	// P99RankErr is the sketch's documented rank-error bound at q=0.99
	// (0 for an empty track). Normally ~0.003 at the default
	// compression; visibly larger when coarse device-posted sketches
	// were merged into the cell.
	P99RankErr float64 `json:"p99_rank_err,omitempty"`
}

// trackStats derives a track's view. The track holds the coverage
// invariant (see Cell.Validate), so its sketch counts every
// observation its moments do.
func trackStats(tr agg.Track) TrackStats {
	ms := func(f float64) float64 { return f / float64(time.Millisecond) }
	m, h, sk := tr.Moments, tr.Hist, tr.Sketch
	t := TrackStats{Samples: m.N, MeanMS: ms(m.Mean), StddevMS: ms(m.Stddev()),
		HistUnder: h.Under, HistOver: h.Over}
	if m.N > 0 {
		t.MinMS, t.MaxMS = ms(m.MinV), ms(m.MaxV)
		t.P50MS = ms(sk.Quantile(0.50))
		t.P90MS = ms(sk.Quantile(0.90))
		t.P99MS = ms(sk.Quantile(0.99))
		t.P99RankErr = sk.QuantileErrorBound(0.99)
	}
	return t
}

// CellStats is the queryable derived view of one aggregate cell.
type CellStats struct {
	Key                Key        `json:"key"`
	Sessions           int64      `json:"sessions"`
	ProbesSent         int64      `json:"probes_sent"`
	ProbesLost         int64      `json:"probes_lost"`
	LossRate           float64    `json:"loss_rate"`
	BackgroundSent     int64      `json:"background_sent"`
	Raw                TrackStats `json:"raw"`
	Punctured          TrackStats `json:"punctured"`
	CorrectionMeanMS   float64    `json:"correction_mean_ms"`
	InflationMean      float64    `json:"inflation_mean"`
	UserOverheadMS     float64    `json:"user_overhead_mean_ms"`
	SDIOOverheadMS     float64    `json:"sdio_overhead_mean_ms"`
	PSMInflationMS     float64    `json:"psm_inflation_mean_ms"`
	PSMActiveSessions  int64      `json:"psm_active_sessions"`
	CalibratedSessions int64      `json:"calibrated_sessions"`
	ReportedSessions   int64      `json:"reported_sessions"`
	LearnedSessions    int64      `json:"learned_sessions"`
	FamilySessions     int64      `json:"family_sessions,omitempty"`
	GlobalSessions     int64      `json:"global_sessions,omitempty"`
	Uncorrected        int64      `json:"uncorrected_sessions"`
}

// StatsFor derives the view of one cell.
func StatsFor(c *Cell) CellStats {
	ms := func(f float64) float64 { return f / float64(time.Millisecond) }
	return CellStats{
		Key:                c.Key,
		Sessions:           c.Sessions,
		ProbesSent:         c.ProbesSent,
		ProbesLost:         c.ProbesLost,
		LossRate:           c.LossRate(),
		BackgroundSent:     c.BackgroundSent,
		Raw:                trackStats(c.raw()),
		Punctured:          trackStats(c.punctured()),
		CorrectionMeanMS:   ms(c.Correction.Mean),
		InflationMean:      c.Inflation.Mean,
		UserOverheadMS:     ms(c.User.Mean),
		SDIOOverheadMS:     ms(c.SDIO.Mean),
		PSMInflationMS:     ms(c.PSM.Mean),
		PSMActiveSessions:  c.PSMActiveSessions,
		CalibratedSessions: c.CalibratedSessions,
		ReportedSessions:   c.ReportedSessions,
		LearnedSessions:    c.LearnedSessions,
		FamilySessions:     c.FamilySessions,
		GlobalSessions:     c.GlobalSessions,
		Uncorrected:        c.UncorrectedSessions,
	}
}

// StatsResponse is the /stats JSON payload. Counters carries every
// figure the server exports (MetricsSnapshot), including the
// knowledge-store profile_rejections — models the learned-table cap
// refused are visible here instead of silently dropped.
type StatsResponse struct {
	Rollup   Rollup           `json:"rollup"`
	WindowMS int64            `json:"window_ms"`
	Cells    []CellStats      `json:"cells"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// StatsQuery derives the /stats view of the store alone. The error is
// always nil.
func (st *Store) StatsQuery(r Rollup) ([]CellStats, error) {
	rows, _ := st.rows(0, r, nil, nil)
	return rows, nil
}

// cellFilter is the key filter /stats and /v1/stream share: empty
// fields match everything; set fields must match exactly.
type cellFilter struct {
	device, group, scenario string
}

func filterFromQuery(q map[string][]string) cellFilter {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	return cellFilter{device: get("device"), group: get("group"), scenario: get("scenario")}
}

func (f cellFilter) empty() bool { return f == cellFilter{} }

func (f cellFilter) match(k Key) bool {
	if f.device != "" && k.Device != f.device {
		return false
	}
	if f.group != "" && k.Group != f.group {
		return false
	}
	if f.scenario != "" && k.Scenario != f.scenario {
		return false
	}
	return true
}

// keep filters rows in place to those whose key matches.
func (f cellFilter) keep(rows []CellStats) []CellStats {
	if f.empty() {
		return rows
	}
	kept := rows[:0]
	for _, c := range rows {
		if f.match(c.Key) {
			kept = append(kept, c)
		}
	}
	return kept
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	rollup, err := ParseRollup(r.URL.Query().Get("by"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cellStats, _ := s.store.rows(0, rollup, s.replicaSource(), nil)
	resp := StatsResponse{Rollup: rollup, WindowMS: s.store.windowMS,
		Cells: filterFromQuery(r.URL.Query()).keep(cellStats), Counters: s.MetricsSnapshot()}
	if strings.EqualFold(r.URL.Query().Get("format"), "table") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, RenderStats(resp))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// RenderStats renders a stats response as a paper-style table: raw and
// punctured delay side by side, plus the applied correction and its
// provenance. Percentiles are sketch-backed; the ">range" column shows
// each track's histogram overflow mass (raw/punctured).
func RenderStats(resp StatsResponse) string {
	t := report.NewTable(
		fmt.Sprintf("Live ingest aggregates by %s (durations in ms; raw = as reported, punctured = de-inflated).", resp.Rollup),
		"Cell", "Sessions", "Probes", "Loss",
		"raw mean±sd", "raw p50", "raw p90", "raw p99",
		"punct mean", "p50", "p90", "p99",
		">range r/p", "corr", "src r/l/f/g/n", "PSM act.")
	f2 := func(f float64) string { return fmt.Sprintf("%.2f", f) }
	for _, c := range resp.Cells {
		label := cellLabel(c.Key, resp.Rollup)
		t.AddRow(label,
			fmt.Sprintf("%d", c.Sessions),
			fmt.Sprintf("%d", c.ProbesSent),
			fmt.Sprintf("%.1f%%", c.LossRate*100),
			fmt.Sprintf("%s±%s", f2(c.Raw.MeanMS), f2(c.Raw.StddevMS)),
			f2(c.Raw.P50MS), f2(c.Raw.P90MS), f2(c.Raw.P99MS),
			f2(c.Punctured.MeanMS),
			f2(c.Punctured.P50MS), f2(c.Punctured.P90MS), f2(c.Punctured.P99MS),
			fmt.Sprintf("%d/%d", c.Raw.HistOver, c.Punctured.HistOver),
			f2(c.CorrectionMeanMS),
			fmt.Sprintf("%d/%d/%d/%d/%d", c.ReportedSessions, c.LearnedSessions,
				c.FamilySessions, c.GlobalSessions, c.Uncorrected),
			fmt.Sprintf("%d/%d", c.PSMActiveSessions, c.Sessions))
	}
	out := t.String()
	// Footer: where the history that is *not* in the table went. Only
	// cap-dropped summaries are loss; compacted/evicted cells live on in
	// rollups.
	if c := resp.Counters; c != nil {
		out += fmt.Sprintf(
			"retention: compacted=%d cells (%d sessions, lossless) evicted=%d rollups=%d cap-dropped=%d summaries (lossy)\n",
			c["compacted_cells"], c["compacted_sessions"], c["evicted_cells"],
			c["rollup_cells"], c["dropped_summaries"])
		// On a clustered node the table above is fleet-wide; say which
		// sessions this node folded itself vs received via gossip.
		if peers, ok := c["cluster_peers"]; ok {
			out += fmt.Sprintf(
				"cluster: local=%d sessions (folded here) replicated=%d sessions in %d cells from %d/%d live peer(s)\n",
				c["folded_summaries"], c["cluster_replicated_sessions"],
				c["cluster_replica_cells"], c["cluster_peers_alive"], peers)
		}
	}
	return out
}

func cellLabel(k Key, r Rollup) string {
	switch r {
	case RollupGroup:
		return k.Group
	case RollupDevice:
		return k.Device
	case RollupWindow:
		if k.WindowMS < 0 {
			return "all-time" // identity-collapsed overflow rollup
		}
		return time.UnixMilli(k.WindowMS).UTC().Format("15:04:05")
	default:
		parts := []string{k.Group}
		if k.Device != k.Group {
			parts = append(parts, k.Device)
		}
		if k.Scenario != "" {
			parts = append(parts, k.Scenario)
		}
		if k.WindowMS < 0 {
			parts = append(parts, "all-time")
		} else if k.WindowMS != 0 {
			parts = append(parts, time.UnixMilli(k.WindowMS).UTC().Format("15:04:05"))
		}
		return strings.Join(parts, "/")
	}
}

// ProfilesResponse is the /v1/profiles GET payload: the whole
// device-knowledge store — per-model calibrated timers + learned
// overheads + sample counts (the snapshot), plus how many corrections
// each resolution-ladder rung has served.
type ProfilesResponse struct {
	*puncture.Snapshot
	Models   int              `json:"models"`
	Resolved map[string]int64 `json:"resolved_by_source"`
}

// maxProfileDeltaBytes caps a POSTed fleet delta; a snapshot of the
// full default model cap fits comfortably.
const maxProfileDeltaBytes = 64 << 20

// handleProfiles serves the knowledge store (GET) and merges a fleet
// campaign's profile delta into it (POST of a puncture.Snapshot — the
// exact bytes `acutemon-fleet -profiles` writes).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.punc.Store()
		resp := ProfilesResponse{
			Snapshot: st.Snapshot(),
			Models:   st.Len(),
			Resolved: st.ResolvedBySource(),
		}
		// Clustered servers answer for the whole fleet: the local
		// snapshot merged with every peer's replicated knowledge.
		// ?scope=local keeps the single-node view (it is what the gossip
		// rounds themselves exchange — a fleet-merged response here must
		// never feed back into gossip or models would double-count).
		if src := s.replicaSource(); src != nil && !strings.EqualFold(r.URL.Query().Get("scope"), "local") {
			if snap, models, err := fleetProfiles(st, src); err == nil {
				resp.Snapshot = snap
				resp.Models = models
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	case http.MethodPost:
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		body := http.MaxBytesReader(w, r.Body, maxProfileDeltaBytes)
		snap, err := puncture.ReadSnapshot(body)
		if err != nil {
			s.metrics.BadBatches.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.punc.Store().MergeSnapshot(snap); err != nil {
			s.metrics.BadBatches.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.metrics.ProfileMerges.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"merged_profiles":%d,"models":%d}`+"\n", len(snap.Profiles), s.punc.Store().Len())
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	payload := map[string]any{"status": status, "counters": s.MetricsSnapshot()}
	// Clustered servers report per-peer liveness and last-merge epochs,
	// so one /healthz poll shows whether the fleet view is current.
	if src := s.replicaSource(); src != nil {
		payload["cluster"] = src.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(payload)
}

// trackFresh is the HTTP server's ConnState hook: it keeps the set of
// connections in StateNew for Shutdown to close. Registration precedes
// the draining check, so a connection accepted during Shutdown's sweep
// is closed either by the sweep or here.
func (s *Server) trackFresh(c net.Conn, state http.ConnState) {
	if state != http.StateNew {
		s.fresh.remove(c)
		return
	}
	s.fresh.add(c)
	if s.draining.Load() {
		c.Close()
	}
}

// boundedListener caps concurrently open accepted connections: Accept
// blocks while MaxConns connections are alive, pushing connect-level
// backpressure into the kernel accept queue instead of the heap.
type boundedListener struct {
	net.Listener
	sem chan struct{}
}

func (l *boundedListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &boundedConn{Conn: c, release: func() { <-l.sem }}, nil
}

type boundedConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *boundedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
