package cluster

import (
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
)

// scrapeMetrics GETs /metrics and returns its # TYPE lines (family →
// type) and its figures: names with the acutemon_ prefix and a
// counter's _total suffix stripped, the fold_ns summary left out.
func scrapeMetrics(t *testing.T, base string) (types map[string]string, figures map[string]int64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	types, samples := map[string]string{}, map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		name, v, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		samples[name] = n
	}
	figures = map[string]int64{}
	for family, typ := range types {
		name := strings.TrimPrefix(family, "acutemon_")
		switch typ {
		case "counter":
			figures[strings.TrimSuffix(name, "_total")] = samples[family]
		case "gauge":
			figures[name] = samples[family]
		}
	}
	return types, figures
}

// TestClusterMetricsNames pins what joining a cluster adds to /metrics:
// exactly the 13 acutemon_cluster_* families, with their types, and
// nothing of the single-node set goes away.
func TestClusterMetricsNames(t *testing.T) {
	s := startServer(t, ingest.Config{Window: -1})
	single, _ := scrapeMetrics(t, s.URL())
	joinNode(t, s, Config{NodeID: "a", Peers: []string{"127.0.0.1:1"}, Interval: time.Hour})
	clustered, _ := scrapeMetrics(t, s.URL())
	want := maps.Clone(single)
	for _, n := range []string{
		"rounds", "round_errors", "deltas_served", "resyncs",
		"replicated_cell_updates", "replicated_removals", "knowledge_merges",
	} {
		want["acutemon_cluster_"+n+"_total"] = "counter"
	}
	for _, n := range []string{
		"peers", "peers_alive", "replica_cells", "replicated_sessions",
		"replica_models", "last_merge_epoch_min",
	} {
		want["acutemon_cluster_"+n] = "gauge"
	}
	if !maps.Equal(clustered, want) {
		t.Errorf("clustered /metrics families:\n got %v\nwant %v", clustered, want)
	}
}

// TestClusterFiguresAgreeAcrossSurfaces: on a clustered node
// MetricsSnapshot and the /healthz, /stats and /v1/cluster counters
// carry exactly the figures /metrics exports, with the same values.
func TestClusterFiguresAgreeAcrossSurfaces(t *testing.T) {
	sA := startServer(t, ingest.Config{Window: -1})
	sB := startServer(t, ingest.Config{Window: -1})
	campaign, _ := buildCampaign(t, 6, 5)
	waitFolded(t, sB, streamTo(t, sB, campaign))
	// One pull each (the hour-long interval keeps the figures still):
	// A replicates B's cells.
	joinNode(t, sB, Config{NodeID: "b", Interval: time.Hour})
	nA := joinNode(t, sA, Config{NodeID: "a", Peers: []string{sB.URL()}, Interval: time.Hour})
	waitUntil(t, 10*time.Second, "replication", func() bool {
		return nA.StatusSnapshot().Counters["cluster_replicated_sessions"] > 0
	})
	// uptime_seconds may tick between reads; retry until one pass of
	// reads lands inside the same second.
	for attempt := 0; ; attempt++ {
		var health, stats, status struct {
			Counters map[string]int64 `json:"counters"`
		}
		getJSON(t, sA.URL()+"/healthz", &health)
		getJSON(t, sA.URL()+"/stats", &stats)
		getJSON(t, sA.URL()+"/v1/cluster", &status)
		_, metrics := scrapeMetrics(t, sA.URL())
		views := map[string]map[string]int64{
			"MetricsSnapshot": sA.MetricsSnapshot(),
			"/healthz":        health.Counters,
			"/stats":          stats.Counters,
			"/v1/cluster":     status.Counters,
		}
		agree := true
		for name, v := range views {
			if !maps.Equal(v, metrics) {
				agree = false
				if attempt == 5 {
					t.Fatalf("%s counters differ from /metrics:\n got %v\nwant %v", name, v, metrics)
				}
			}
		}
		if agree {
			if metrics["cluster_peers_alive"] != 1 || metrics["queue_cap"] == 0 {
				t.Fatalf("figures: %v", metrics)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
