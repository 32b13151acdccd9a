package ingest

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// GET /metrics: Prometheus text exposition (format 0.0.4), so ingestd
// plugs into standard scrapers without a sidecar. Monotonic counters
// from MetricsSnapshot get a _total suffix; point-in-time gauges (the
// /healthz set) do not. No client library — the format is four lines
// of syntax and the daemon has a zero-dependency rule.

// metricsGaugeKeys are the server's own MetricsSnapshot entries that
// are levels, not monotonic counters (everything else gets _total). A
// replica source names its own levels through IsGauge.
var metricsGaugeKeys = map[string]bool{
	"learned_models":     true,
	"rollup_cells":       true,
	"stream_subscribers": true,
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var b strings.Builder
	src := s.replicaSource()
	counters := s.metricsSnapshot(src)
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full, typ := "acutemon_"+name+"_total", "counter"
		if metricsGaugeKeys[name] || src != nil && src.IsGauge(name) {
			full, typ = "acutemon_"+name, "gauge"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", full, typ, full, counters[name])
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(&b, "# TYPE acutemon_%s gauge\nacutemon_%s %d\n", name, name, v)
	}
	// Fold latency as a Prometheus summary (sum/count, no quantile
	// series): nanoseconds spent folding drained pipe jobs. Rate of the
	// sum over rate of the count is mean fold latency; the count's rate
	// is job throughput.
	fmt.Fprintf(&b, "# TYPE acutemon_fold_ns summary\nacutemon_fold_ns_sum %d\nacutemon_fold_ns_count %d\n",
		s.metrics.FoldNanos.Load(), s.metrics.FoldJobs.Load())
	gauge("queue_len", int64(len(s.credits)))
	gauge("queue_cap", int64(cap(s.credits)))
	gauge("cells", s.store.Cells())
	gauge("max_cells", s.store.MaxCells())
	gauge("window_ms", s.store.windowMS)
	gauge("rollup_window_ms", s.store.RollupWindow())
	gauge("uptime_seconds", int64(time.Since(s.started).Seconds()))
	up := int64(1)
	if s.draining.Load() {
		up = 0
	}
	gauge("up", up)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
