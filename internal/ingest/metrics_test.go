package ingest

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape GETs /metrics and returns its # TYPE lines (family → type)
// and its samples (name → value).
func scrape(t *testing.T, base string) (types map[string]string, samples map[string]int64) {
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
	types, samples = map[string]string{}, map[string]int64{}
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
	return types, samples
}

// TestMetricsNames pins the /metrics exposition of a single node: every
// family, its type, and the samples it carries.
func TestMetricsNames(t *testing.T) {
	s := startTestServer(t, Config{})
	types, samples := scrape(t, s.URL())
	want := map[string]string{"acutemon_fold_ns": "summary"}
	for _, n := range []string{
		"accepted_batches", "accepted_summaries", "bad_batches", "compacted_cells",
		"compacted_sessions", "compaction_cycles", "dropped_summaries", "evicted_cells",
		"folded_samples", "folded_summaries", "oversized_batches", "profile_merges",
		"profile_rejections", "profile_save_errors", "profile_saves", "rejected_batches",
		"stream_coalesced", "stream_dropped", "stream_events", "stream_rejected",
	} {
		want["acutemon_"+n+"_total"] = "counter"
	}
	for _, n := range []string{
		"cells", "learned_models", "max_cells", "profile_snapshot_age_seconds", "queue_cap",
		"queue_len", "rollup_cells", "rollup_window_ms", "stream_subscribers", "up",
		"uptime_seconds", "window_ms",
	} {
		want["acutemon_"+n] = "gauge"
	}
	if !maps.Equal(types, want) {
		t.Errorf("/metrics families:\n got %v\nwant %v", types, want)
	}
	var gotSamples, wantSamples []string
	for name := range samples {
		gotSamples = append(gotSamples, name)
	}
	for name, typ := range want {
		if typ == "summary" {
			wantSamples = append(wantSamples, name+"_sum", name+"_count")
		} else {
			wantSamples = append(wantSamples, name)
		}
	}
	slices.Sort(gotSamples)
	slices.Sort(wantSamples)
	if !slices.Equal(gotSamples, wantSamples) {
		t.Errorf("/metrics samples:\n got %v\nwant %v", gotSamples, wantSamples)
	}
}

// TestProfileSnapshotAge: the snapshot age is 0 without a profiles
// path; with one it counts from the boot load, and a successful save
// resets it.
func TestProfileSnapshotAge(t *testing.T) {
	const name = "profile_snapshot_age_seconds"
	if age := startTestServer(t, Config{}).MetricsSnapshot()[name]; age != 0 {
		t.Fatalf("age %d without ProfilesPath, want 0", age)
	}
	s := startTestServer(t, Config{ProfilesPath: filepath.Join(t.TempDir(), "know.json"), ProfilesInterval: -1})
	if age := s.MetricsSnapshot()[name]; age != 0 {
		t.Fatalf("age %d right after boot, want 0", age)
	}
	s.snapshotAt.Store(time.Now().Add(-90 * time.Second).UnixNano())
	if age := s.MetricsSnapshot()[name]; age < 90 || age > 91 {
		t.Fatalf("age %d for a snapshot 90 s old", age)
	}
	if err := s.saveProfiles(); err != nil {
		t.Fatal(err)
	}
	if age := s.MetricsSnapshot()[name]; age != 0 {
		t.Fatalf("age %d right after a save, want 0", age)
	}
}

// TestFiguresAgreeAcrossSurfaces: MetricsSnapshot and the /healthz and
// /stats counters carry exactly the figures /metrics exports, with the
// same values.
func TestFiguresAgreeAcrossSurfaces(t *testing.T) {
	s := startTestServer(t, Config{})
	lg := &LoadGen{URL: s.URL(), BatchSize: 4}
	if _, err := lg.Churn(context.Background(), ChurnSpec{Rounds: 1, Keys: 8, Sessions: 1, StartMS: time.Now().UnixMilli()}); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 8)
	views := func() map[string]map[string]int64 {
		var health, stats struct {
			Counters map[string]int64 `json:"counters"`
		}
		for path, out := range map[string]any{"/healthz": &health, "/stats": &stats} {
			resp, err := http.Get(s.URL() + path)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return map[string]map[string]int64{
			"/metrics":        metricsFigures(t, s.URL()),
			"MetricsSnapshot": s.MetricsSnapshot(),
			"/healthz":        health.Counters,
			"/stats":          stats.Counters,
		}
	}
	// uptime_seconds may tick between reads; retry until one pass of
	// reads lands inside the same second.
	for attempt := 0; ; attempt++ {
		vs := views()
		agree := true
		for name, v := range vs {
			if !maps.Equal(v, vs["/metrics"]) {
				agree = false
				if attempt == 5 {
					t.Fatalf("%s counters differ from /metrics:\n got %v\nwant %v", name, v, vs["/metrics"])
				}
			}
		}
		if agree {
			if _, ok := vs["/metrics"]["queue_len"]; !ok {
				t.Fatalf("queue_len missing: %v", vs["/metrics"])
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricsFigures reads /metrics back into figure names: the acutemon_
// prefix and a counter's _total suffix stripped, the fold_ns summary
// left out.
func metricsFigures(t *testing.T, base string) map[string]int64 {
	t.Helper()
	types, samples := scrape(t, base)
	out := map[string]int64{}
	for family, typ := range types {
		name := strings.TrimPrefix(family, "acutemon_")
		switch typ {
		case "counter":
			out[strings.TrimSuffix(name, "_total")] = samples[family]
		case "gauge":
			out[name] = samples[family]
		}
	}
	return out
}
