package ingest

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"
)

// Figure is one number the daemon exports: a monotonic count or a
// level. Every figure is declared once, in Server.figures (or, on a
// clustered node, in its ReplicaSource's Figures), and every surface
// renders that one list: /metrics, MetricsSnapshot and through it the
// /healthz and /stats counters and /v1/cluster.
type Figure struct {
	Name string
	// Gauge marks a level, which may fall; /metrics exports it bare.
	// Otherwise the figure only grows and /metrics appends _total.
	Gauge bool
	Value int64
}

// Count declares a monotonic count.
func Count(name string, v int64) Figure { return Figure{Name: name, Value: v} }

// Level declares a level.
func Level(name string, v int64) Figure { return Figure{Name: name, Gauge: true, Value: v} }

// figures is every number the server exports, in declaration order,
// followed by the replica source's (nil on a single node).
func (s *Server) figures(src ReplicaSource) []Figure {
	up := int64(1)
	if s.draining.Load() {
		up = 0
	}
	fs := []Figure{
		Count("accepted_batches", s.metrics.AcceptedBatches.Load()),
		Count("accepted_summaries", s.metrics.AcceptedSummaries.Load()),
		Count("folded_summaries", s.metrics.FoldedSummaries.Load()),
		Count("folded_samples", s.metrics.FoldedSamples.Load()),
		Count("rejected_batches", s.metrics.RejectedBatches.Load()),
		Count("bad_batches", s.metrics.BadBatches.Load()),
		Count("oversized_batches", s.metrics.OversizedBatches.Load()),
		Count("dropped_summaries", s.store.Dropped()),
		// Retention accounting: every cell that leaves the fine tier is
		// either compacted (janitor, lossless) or evicted (cap pressure,
		// lossless). Sessions demoted into rollups are preserved, not
		// lost: a rollup merge cannot fail.
		Count("compacted_cells", s.store.Compacted()),
		Count("compacted_sessions", s.store.CompactedSessions()),
		Count("evicted_cells", s.store.Evicted()),
		Level("rollup_cells", s.store.RollupCells()),
		Count("compaction_cycles", s.metrics.CompactionCycles.Load()),
		Count("stream_events", s.metrics.StreamEvents.Load()),
		Count("stream_coalesced", s.bcast.coalesced.Load()),
		Count("stream_dropped", s.metrics.StreamDropped.Load()),
		Count("stream_rejected", s.metrics.StreamRejected.Load()),
		Level("stream_subscribers", s.bcast.count()),
		// Knowledge-store accounting: learned profiles live in the
		// store, mints refused at the model cap are counted, not
		// silently dropped.
		Level("learned_models", int64(s.punc.Store().Len())),
		Count("profile_rejections", s.punc.Store().Rejected()),
		Count("profile_merges", s.metrics.ProfileMerges.Load()),
		Count("profile_saves", s.metrics.ProfileSaves.Load()),
		Count("profile_save_errors", s.metrics.ProfileSaveErrors.Load()),
		Level("profile_snapshot_age_seconds", s.snapshotAge()),
		// queue_* keep their names across the pipeline refactor: len is
		// outstanding batch credits, cap the credit pool.
		Level("queue_len", int64(len(s.credits))),
		Level("queue_cap", int64(cap(s.credits))),
		// Resident fine cells against their cap.
		Level("cells", s.store.Cells()),
		Level("max_cells", s.store.MaxCells()),
		Level("window_ms", s.store.windowMS),
		Level("rollup_window_ms", s.store.RollupWindow()),
		Level("uptime_seconds", int64(time.Since(s.started).Seconds())),
		Level("up", up),
	}
	if src != nil {
		fs = append(fs, src.Figures()...)
	}
	return fs
}

// MetricsSnapshot returns the figures as a name → value map. On a
// clustered server the acutemon_cluster_* set rides along.
func (s *Server) MetricsSnapshot() map[string]int64 {
	fs := s.figures(s.replicaSource())
	m := make(map[string]int64, len(fs))
	for _, f := range fs {
		m[f.Name] = f.Value
	}
	return m
}

// GET /metrics: Prometheus text exposition (format 0.0.4), so ingestd
// plugs into standard scrapers without a sidecar. Counts get a _total
// suffix and TYPE counter; levels are bare gauges. No client library —
// the format is four lines of syntax and the daemon has a
// zero-dependency rule.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var b strings.Builder
	fs := s.figures(s.replicaSource())
	slices.SortFunc(fs, func(a, b Figure) int { return strings.Compare(a.Name, b.Name) })
	for _, f := range fs {
		full, typ := "acutemon_"+f.Name+"_total", "counter"
		if f.Gauge {
			full, typ = "acutemon_"+f.Name, "gauge"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", full, typ, full, f.Value)
	}
	// Fold latency as a Prometheus summary (sum/count, no quantile
	// series): nanoseconds spent folding drained pipe jobs. Rate of the
	// sum over rate of the count is mean fold latency; the count's rate
	// is job throughput.
	var jobs int64
	for i := range s.foldJobs {
		jobs += s.foldJobs[i].Load()
	}
	fmt.Fprintf(&b, "# TYPE acutemon_fold_ns summary\nacutemon_fold_ns_sum %d\nacutemon_fold_ns_count %d\n",
		s.metrics.FoldNanos.Load(), jobs)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
