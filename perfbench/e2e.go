package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/ingest"
)

// fixture is one workload's prepared state: a started server, open
// client connections and pre-encoded inputs. Everything a fixture holds
// is built during set-up, so the timed phase only sends (and, on
// campaign, simulates the sessions it sends).
type fixture interface {
	server() *ingest.Server
	// readerInterval is the /stats?by=group polling period.
	readerInterval() time.Duration
	// drive is the timed phase: send until the deadline (or the inputs
	// run out) and return what the client side saw.
	drive(deadline time.Time) clientStats
	// check returns the workload's correctness violations once the
	// server has drained.
	check(out *outcome) []string
	// replayInput is what the traced replay re-runs.
	replayInput(out *outcome) replayInput
	// close releases the client side. It runs before the server's
	// Shutdown, so no idle client connection holds the drain up.
	close()
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(o opts) (fixture, error){
	"hot-cells":  setupHotCells,
	"churn-json": setupChurn,
	"campaign":   setupCampaign,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timed is one latency sample (ms) stamped with when it completed, so
// it can be assigned to a slice of the timed phase.
type timed struct {
	at time.Time
	ms float64
}

// clientStats is what the load generator observed. Sender goroutines
// each fill their own and merge at the end.
type clientStats struct {
	acks      []timed   // batch send (due time, on an open loop) → accepted
	late      []float64 // open loop: actual send start − due time, ms
	attempted int64     // summaries the generator tried to deliver
	acked     int64     // summaries in accepted batches
	refused   int64     // summaries in batches still refused after retries
	errs      []string
}

func (c *clientStats) merge(o clientStats) {
	c.acks = append(c.acks, o.acks...)
	c.late = append(c.late, o.late...)
	c.attempted += o.attempted
	c.acked += o.acked
	c.refused += o.refused
	c.errs = append(c.errs, o.errs...)
}

// outcome is the end-to-end run's result, kept for the checks and the
// traced replay.
type outcome struct {
	fx      fixture
	metrics map[string]metric

	attempted, acked, folded, dropped, refused int64
	// backlog is acknowledged-but-unfolded summaries when sending ended.
	backlog    int64
	mismatches []string
}

func (o *outcome) failed() int64 { return o.refused + o.dropped }
func (o *outcome) correct() bool { return len(o.mismatches) == 0 }

const (
	// probeEvery is the in-process sampling period (heap, folded, CPU);
	// the server's /metrics is scraped every scrapeEvery-th sample.
	probeEvery  = 10 * time.Millisecond
	scrapeEvery = 10
	// slices is how many equal slices of the timed phase each gated
	// metric is computed over; the median slice is reported, so a burst
	// of outside interference moves at most a few slices.
	slices      = 10
	smokeSlices = 2
	// drainStall ends the wait for the last fold when nothing folds for
	// this long: the acknowledged summaries are then reported missing.
	drainStall = time.Second
)

func timedPhase(o opts) time.Duration {
	if o.smoke {
		return 500 * time.Millisecond
	}
	return time.Duration(o.seconds * float64(time.Second))
}

// runE2E sets the workload up (several times, reporting the median
// set-up time), runs the timed phase with tracing off, drains, and
// checks the outputs.
func runE2E(o opts) (*outcome, error) {
	setup := workloads[o.workload]
	rounds, nSlices := 3, slices
	if o.smoke {
		rounds, nSlices = 1, smokeSlices
	}
	var setupCPU, setupWall []float64
	var fx fixture
	for r := 0; r < rounds; r++ {
		c0, t0 := cpuTime(), time.Now()
		f, err := setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if r == rounds-1 {
			fx = f
			break
		}
		f.close()
		if err := shutdown(f.server()); err != nil {
			return nil, err
		}
	}
	srv := fx.server()
	out := &outcome{fx: fx, metrics: map[string]metric{}}

	rt0, ep0 := readRuntime(), srv.Store().Epoch()
	pr := startProbe(srv)
	rd := startReader(srv.URL(), fx.readerInterval())
	t0 := time.Now()
	cs := fx.drive(t0.Add(timedPhase(o)))
	sendEnd := time.Now()
	pr.stop()
	rd.stop()
	snap := srv.MetricsSnapshot()
	out.backlog = cs.acked - snap["folded_summaries"] - snap["dropped_summaries"]
	waitFolded(srv, cs.acked)
	rt1, ep1 := readRuntime(), srv.Store().Epoch()
	scraped, scrapeErr := scrapeMetrics(pr.client, srv.URL())
	pr.client.CloseIdleConnections()

	// The drain is outside every clock: client connections close first,
	// then the server shuts down and the checks read the quiet store.
	fx.close()
	if err := shutdown(srv); err != nil {
		return nil, err
	}
	snap = srv.MetricsSnapshot()
	out.attempted, out.acked, out.refused = cs.attempted, cs.acked, cs.refused
	out.folded, out.dropped = snap["folded_summaries"], snap["dropped_summaries"]
	out.mismatches = append(out.mismatches, cs.errs...)
	if scrapeErr != nil {
		out.mismatches = append(out.mismatches, scrapeErr.Error())
	}
	out.mismatches = append(out.mismatches, fx.check(out)...)

	m := out.metrics
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }
	sl := slicer{t0: t0, end: sendEnd, n: nSlices, probe: pr.samples}
	set("setup_s", median(setupCPU))
	set("setup_wall_s", median(setupWall))
	set("summaries_per_s", sl.median(sl.rate))
	set("cpu_us_per_summary", sl.median(sl.cpuPerSummary))
	set("ack_p50_ms", sl.median(sl.pct(cs.acks, 0.50)))
	set("ack_p99_ms", sl.median(sl.pct(cs.acks, 0.99)))
	set("ack_samples", float64(len(cs.acks)))
	set("stats_p50_ms", sl.median(sl.pct(rd.lat, 0.50)))
	set("stats_p99_ms", sl.median(sl.pct(rd.lat, 0.99)))
	set("stats_samples", float64(len(rd.lat)))
	set("peak_heap_mb", sl.median(sl.heapMax)/(1<<20))
	failFrac := float64(out.failed()) / math.Max(1, float64(out.attempted))
	set("fail_frac", failFrac)
	set("delivered_frac", 1-failFrac)
	set("mismatches", float64(len(out.mismatches)))
	if len(cs.late) > 0 {
		set("gen_late_p99_ms", percentile(cs.late, 0.99))
	}
	if o.workload == "campaign" {
		// One summary per simulated session.
		m["sessions_per_s"] = metric{Value: m["summaries_per_s"].Value, Unit: unitOf("sessions_per_s")}
	}

	// Live per-layer counters from this same run.
	per := func(v float64) float64 { return v / math.Max(1, float64(out.folded)) }
	queue := make([]float64, len(pr.scrapes))
	var cellsMax float64
	for i, s := range pr.scrapes {
		queue[i] = s.queueLen
		cellsMax = math.Max(cellsMax, s.cells)
	}
	set("pipeline.queue_len_p99", percentile(queue, 0.99))
	set("pipeline.busy_batches", float64(snap["rejected_batches"]))
	jobs := scraped["acutemon_fold_ns_count"]
	set("pipeline.fold_ns_per_job", scraped["acutemon_fold_ns_sum"]/math.Max(1, jobs))
	set("pipeline.summaries_per_job", float64(out.folded)/math.Max(1, jobs))
	set("store.epochs_per_summary", per(float64(ep1-ep0)))
	set("store.cells_resident_max", cellsMax)
	set("retention.evicted_per_summary", per(float64(snap["evicted_cells"])))
	set("retention.compacted_per_summary", per(float64(snap["compacted_cells"])))
	set("retention.dropped_summaries", float64(out.dropped))
	set("stream.events", float64(snap["stream_events"]))
	gc := rt1.f("/cpu/classes/gc/total:cpu-seconds") - rt0.f("/cpu/classes/gc/total:cpu-seconds")
	busy := (rt1.f("/cpu/classes/total:cpu-seconds") - rt0.f("/cpu/classes/total:cpu-seconds")) -
		(rt1.f("/cpu/classes/idle:cpu-seconds") - rt0.f("/cpu/classes/idle:cpu-seconds"))
	set("runtime.gc_cpu_frac", gc/math.Max(busy, 1e-9))
	set("runtime.alloc_bytes_per_summary", per(float64(rt1.u("/gc/heap/allocs:bytes")-rt0.u("/gc/heap/allocs:bytes"))))
	return out, nil
}

// unitOf looks a metric's unit up in the metric tables.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric without a definition: " + name)
}

// waitFolded polls the server until every acknowledged summary is folded
// or dropped. If folding stalls for drainStall it gives up; the checks
// then report the missing summaries.
func waitFolded(srv *ingest.Server, acked int64) {
	last, lastChange := int64(-1), time.Now()
	for {
		m := srv.MetricsSnapshot()
		now := time.Now()
		done := m["folded_summaries"] + m["dropped_summaries"]
		if done >= acked {
			return
		}
		if done != last {
			last, lastChange = done, now
		} else if now.Sub(lastChange) > drainStall {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func shutdown(srv *ingest.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// conservation is the ingest workloads' output check: every
// acknowledged summary is folded or dropped at the cell cap, and every
// folded session is queryable through the group rollup (rollup cells
// included, so compaction and eviction lose nothing).
func conservation(st *ingest.Store, out *outcome) []string {
	var bad []string
	waitQuiet(st)
	cells, err := st.Query(ingest.RollupGroup)
	if err != nil {
		return []string{fmt.Sprintf("query: %v", err)}
	}
	var sessions int64
	for _, c := range cells {
		sessions += c.Sessions
	}
	if sessions != out.folded {
		bad = append(bad, fmt.Sprintf("conservation: %d sessions queryable by group != %d folded", sessions, out.folded))
	}
	if out.acked != out.folded+out.dropped {
		bad = append(bad, fmt.Sprintf("conservation: %d acknowledged != %d folded + %d dropped", out.acked, out.folded, out.dropped))
	}
	return bad
}

// waitQuiet returns once the store's epoch has held still for 250 ms
// (at most 5 s). Shutdown does not wait for a janitor pass already
// running, and a query overlapping one can count a cell being demoted in
// both its fine shard and its rollup.
func waitQuiet(st *ingest.Store) {
	const quiet = 250 * time.Millisecond
	last, since := st.Epoch(), time.Now()
	for deadline := since.Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if ep := st.Epoch(); ep != last {
			last, since = ep, time.Now()
		} else if time.Since(since) >= quiet {
			return
		}
	}
}

// slicer computes a metric on each of n equal slices of the timed phase
// [t0, end) and reports the median slice.
type slicer struct {
	t0, end time.Time
	n       int
	probe   []probeSample
}

func (s slicer) median(f func(a, b time.Time) (float64, bool)) float64 {
	step := s.end.Sub(s.t0) / time.Duration(s.n)
	var vals []float64
	for i := 0; i < s.n; i++ {
		a := s.t0.Add(time.Duration(i) * step)
		if v, ok := f(a, a.Add(step)); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// at interpolates the probe's folded count and CPU time at t.
func (s slicer) at(t time.Time) (folded, cpu float64) {
	p := s.probe
	i := sort.Search(len(p), func(i int) bool { return !p[i].at.Before(t) })
	switch {
	case len(p) == 0:
		return 0, 0
	case i == 0:
		return p[0].folded, p[0].cpu
	case i == len(p):
		return p[i-1].folded, p[i-1].cpu
	}
	a, b := p[i-1], p[i]
	w := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.folded + w*(b.folded-a.folded), a.cpu + w*(b.cpu-a.cpu)
}

// rate is summaries folded per second in [a, b).
func (s slicer) rate(a, b time.Time) (float64, bool) {
	fa, _ := s.at(a)
	fb, _ := s.at(b)
	return (fb - fa) / b.Sub(a).Seconds(), true
}

// cpuPerSummary is process CPU µs per summary folded in [a, b).
func (s slicer) cpuPerSummary(a, b time.Time) (float64, bool) {
	fa, ca := s.at(a)
	fb, cb := s.at(b)
	if fb <= fa {
		return 0, false
	}
	return (cb - ca) / 1e3 / (fb - fa), true
}

// heapMax is the largest heap sample in [a, b).
func (s slicer) heapMax(a, b time.Time) (float64, bool) {
	var max float64
	found := false
	for _, p := range s.probe {
		if !p.at.Before(a) && p.at.Before(b) {
			max, found = math.Max(max, p.heap), true
		}
	}
	return max, found
}

// pct is the p-th percentile of the samples completed in [a, b).
func (s slicer) pct(xs []timed, p float64) func(a, b time.Time) (float64, bool) {
	return func(a, b time.Time) (float64, bool) {
		var in []float64
		for _, x := range xs {
			if !x.at.Before(a) && x.at.Before(b) {
				in = append(in, x.ms)
			}
		}
		return percentile(in, p), len(in) > 0
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample []metrics.Sample

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make(runtimeSample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (s runtimeSample) value(name string) metrics.Value {
	for _, x := range s {
		if x.Name == name {
			return x.Value
		}
	}
	panic("perfbench: runtime metric not read: " + name)
}

func (s runtimeSample) f(name string) float64 {
	if v := s.value(name); v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func (s runtimeSample) u(name string) uint64 {
	if v := s.value(name); v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// probeSample is one in-process reading: Go heap in use, summaries
// folded, and process CPU time (ns).
type probeSample struct {
	at                time.Time
	heap, folded, cpu float64
}

// scrapeSample is one reading of the server's /metrics gauges.
type scrapeSample struct {
	queueLen, cells float64
}

// probe samples the live counters during the timed phase.
type probe struct {
	srv     *ingest.Server
	client  *http.Client
	heap    []metrics.Sample
	stopCh  chan struct{}
	done    chan struct{}
	samples []probeSample
	scrapes []scrapeSample
}

// startProbe takes a first sample synchronously, so the timed phase's
// start is covered, then samples every probeEvery until stop.
func startProbe(srv *ingest.Server) *probe {
	p := &probe{
		srv:    srv,
		client: &http.Client{Timeout: 10 * time.Second},
		heap:   []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-p.stopCh:
				return
			case <-t.C:
			}
			p.sample()
			if tick%scrapeEvery != 0 {
				continue
			}
			if vals, err := scrapeMetrics(p.client, srv.URL()); err == nil {
				p.scrapes = append(p.scrapes, scrapeSample{vals["acutemon_queue_len"], vals["acutemon_cells"]})
			}
		}
	}()
	return p
}

func (p *probe) sample() {
	metrics.Read(p.heap)
	p.samples = append(p.samples, probeSample{
		at:     time.Now(),
		heap:   float64(p.heap[0].Value.Uint64()),
		folded: float64(p.srv.MetricsSnapshot()["folded_summaries"]),
		cpu:    float64(cpuTime()),
	})
}

// stop ends sampling, waits for the sampler to exit, and takes a last
// sample so the timed phase's end is covered.
func (p *probe) stop() {
	close(p.stopCh)
	<-p.done
	p.sample()
}

// scrapeMetrics reads the server's Prometheus text into name → value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// reader polls GET /stats?by=group at a fixed period beside the
// ingest load and records each query's latency.
type reader struct {
	client *http.Client
	stopCh chan struct{}
	done   chan struct{}
	lat    []timed
}

func startReader(base string, every time.Duration) *reader {
	r := &reader{
		client: &http.Client{Timeout: 10 * time.Second},
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
			}
			start := time.Now()
			resp, err := r.client.Get(base + "/stats?by=group")
			if err != nil {
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				now := time.Now()
				r.lat = append(r.lat, timed{now, ms(now.Sub(start))})
			}
		}
	}()
	return r
}

// stop ends polling, waits for the poller, and closes its connection.
func (r *reader) stop() {
	close(r.stopCh)
	<-r.done
	r.client.CloseIdleConnections()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nproc is the connection and campaign-worker budget: one process
// drives the load with at most this many connections.
func nproc() int { return runtime.NumCPU() }
