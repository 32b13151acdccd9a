package ingest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses frames off an open event stream until it closes,
// delivering them on the returned channel.
func readSSE(t *testing.T, resp *http.Response) <-chan sseEvent {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q; want text/event-stream", ct)
	}
	out := make(chan sseEvent, 64)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" {
					out <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.name = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
	}()
	return out
}

// applyDelta folds one stream event into a client-side replica:
// removals first, then upserts — the documented contract.
func applyDelta(replica map[Key]CellStats, ev StreamEvent) {
	if ev.Reset {
		for k := range replica {
			delete(replica, k)
		}
	}
	for _, k := range ev.Removed {
		delete(replica, k)
	}
	for _, c := range ev.Cells {
		replica[c.Key] = c
	}
}

// TestStreamDeltasReproduceStats is the tentpole e2e: a client that
// connects mid-campaign and folds every /v1/stream delta must end up
// with exactly the final polled /stats — counts exact, every derived
// field identical, because deltas carry cumulative cell state.
func TestStreamDeltasReproduceStats(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, QueueDepth: 64, StreamInterval: -1})
	lg := &LoadGen{URL: s.URL(), BatchSize: 5, TimeMS: 1}

	// First wave lands before the client connects: the connect-time
	// snapshot (first delta from cursor 0) must cover it.
	batch1 := benchBatch(20, 8)
	if err := lg.Send(context.Background(), batch1); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 20)

	resp, err := http.Get(s.URL() + "/v1/stream?by=cell")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	replica := map[Key]CellStats{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			switch ev.name {
			case "delta":
				var delta StreamEvent
				if err := json.Unmarshal([]byte(ev.data), &delta); err != nil {
					t.Errorf("bad delta: %v", err)
					return
				}
				applyDelta(replica, delta)
			case "drain":
				return
			}
		}
		t.Error("stream closed without a drain event")
	}()

	// Second wave streams live while the subscriber is attached.
	batch2 := benchBatch(30, 8)
	for i := range batch2 {
		batch2[i].Scenario = "wave2"
	}
	if err := lg.Send(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 50)

	// Final truth: poll /stats once everything folded, then drain. The
	// drain flush delivers anything the subscriber has not seen yet.
	want := map[Key]CellStats{}
	statsResp, err := http.Get(s.URL() + "/stats?by=cell")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	for _, c := range stats.Cells {
		want[c.Key] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream client did not finish after drain")
	}

	if len(replica) != len(want) {
		t.Fatalf("replica has %d cells, /stats has %d", len(replica), len(want))
	}
	for k, w := range want {
		g, ok := replica[k]
		if !ok {
			t.Fatalf("cell %+v missing from stream replica", k)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("cell %+v diverges:\n stream %+v\n  stats %+v", k, g, w)
		}
	}
	if s.metrics.StreamEvents.Load() == 0 {
		t.Error("stream_events counter never advanced")
	}
}

// TestStreamLongPoll exercises the ?poll=1 fallback: an empty store
// answers with just a cursor after the wait budget; once data folds, a
// poll past that cursor returns the delta immediately.
func TestStreamLongPoll(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, StreamInterval: -1})

	get := func(url string) StreamEvent {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %s", resp.Status)
		}
		var ev StreamEvent
		if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}

	empty := get(s.URL() + "/v1/stream?poll=1&wait=50ms")
	if len(empty.Cells) != 0 {
		t.Fatalf("empty store answered cells: %+v", empty.Cells)
	}

	lg := &LoadGen{URL: s.URL(), TimeMS: 1}
	if err := lg.Send(context.Background(), benchBatch(10, 4)); err != nil {
		t.Fatal(err)
	}
	waitFolded(t, s, 10)
	ev := get(fmt.Sprintf("%s/v1/stream?poll=1&since=%d&wait=5s", s.URL(), empty.Epoch))
	if len(ev.Cells) == 0 {
		t.Fatal("poll past the cursor returned no cells after folds")
	}
	if ev.Epoch <= empty.Epoch {
		t.Fatalf("cursor did not advance: %d -> %d", empty.Epoch, ev.Epoch)
	}

	// Filters mirror /stats params.
	dev := ev.Cells[0].Key.Device
	fev := get(fmt.Sprintf("%s/v1/stream?poll=1&device=%s&wait=50ms", s.URL(), strings.ReplaceAll(dev, " ", "%20")))
	if len(fev.Cells) == 0 {
		t.Fatal("device filter matched nothing")
	}
	for _, c := range fev.Cells {
		if c.Key.Device != dev {
			t.Fatalf("filter device=%s leaked %+v", dev, c.Key)
		}
	}
}

// TestStreamSubscriberLimit: past MaxSubscribers, new stream clients
// get 503 + Retry-After and the rejection is counted.
func TestStreamSubscriberLimit(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, MaxSubscribers: 1})
	resp, err := http.Get(s.URL() + "/v1/stream?by=cell")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp)
	select {
	case ev := <-events:
		if ev.name != "hello" {
			t.Fatalf("first frame %q; want hello", ev.name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello frame")
	}

	second, err := http.Get(s.URL() + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber got %s; want 503", second.Status)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if s.metrics.StreamRejected.Load() != 1 {
		t.Errorf("stream_rejected = %d; want 1", s.metrics.StreamRejected.Load())
	}
	if got := s.bcast.count(); got != 1 {
		t.Errorf("subscriber gauge = %d; want 1", got)
	}
}

// TestBroadcasterCoalesce: a slow subscriber that never drains its wake
// slot absorbs any number of pokes into one pending wake, counted as
// coalesced — the bounded-queue guarantee that makes slow clients safe.
func TestBroadcasterCoalesce(t *testing.T) {
	b := newBroadcaster(-1, 4)
	defer b.shutdown()
	sub, err := b.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer b.unsubscribe(sub)
	deadline := time.Now().Add(5 * time.Second)
	for b.coalesced.Load() == 0 {
		b.poke()
		if time.Now().After(deadline) {
			t.Fatal("coalesced counter never advanced for a stalled subscriber")
		}
		time.Sleep(time.Millisecond)
	}
	// The stalled subscriber still holds exactly one pending wake.
	select {
	case <-sub.wake:
	default:
		t.Fatal("no pending wake despite pokes")
	}
	select {
	case <-sub.wake:
		t.Fatal("more than one wake buffered")
	default:
	}
}

// TestBroadcasterDrainRejectsSubscribe: after shutdown begins, new
// subscriptions are refused.
func TestBroadcasterDrainRejectsSubscribe(t *testing.T) {
	b := newBroadcaster(-1, 4)
	b.shutdown()
	if _, err := b.subscribe(); err == nil {
		t.Fatal("subscribe succeeded on a draining broadcaster")
	}
}

// TestChurnSteadyState is the bounded-memory acceptance check: rotating
// device identities marching through event time must hold resident fine
// cells at the cap with compaction preserving every session count, all
// visible in /metrics and /healthz.
func TestChurnSteadyState(t *testing.T) {
	const (
		window    = 200 * time.Millisecond
		retention = 600 * time.Millisecond
		cap       = 8
	)
	s := startTestServer(t, Config{
		Window: window, Retention: retention, CompactWindow: time.Second,
		// Default shard count on purpose: churn keys hash unevenly
		// across shards, so holding the cap drop-free exercises the
		// cross-shard eviction fallback, not just the local fast path.
		MaxCells: cap, StreamInterval: -1,
	})
	lg := &LoadGen{URL: s.URL(), BatchSize: 16}
	windowMS := window.Milliseconds()
	startMS := time.Now().Add(-retention).UnixMilli() + windowMS
	// Rounds are paced through the fold stage (like real time paces
	// churn): eviction only demotes strictly-older windows, so rounds
	// must land in order for rotation to be drop-free.
	posted := 0
	for r := 0; r < 6; r++ {
		n, err := lg.Churn(context.Background(), ChurnSpec{
			Rounds: 1, Keys: cap, Sessions: 1,
			StartMS: startMS + int64(r)*windowMS,
			StepMS:  windowMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		posted += n
		waitFolded(t, s, int64(posted))
	}
	if posted != 6*cap {
		t.Fatalf("posted %d summaries; want %d", posted, 6*cap)
	}
	if got := s.Store().Cells(); got > cap {
		t.Fatalf("%d resident cells exceed cap %d during churn", got, cap)
	}
	if s.Store().Dropped() != 0 {
		t.Fatalf("%d summaries dropped; eviction should absorb rotation", s.Store().Dropped())
	}

	// The janitor (interval = window = 200ms) compacts each window as it
	// ages past retention; wait for the counters to advance.
	deadline := time.Now().Add(15 * time.Second)
	for {
		m := s.MetricsSnapshot()
		if m["compacted_cells"]+m["evicted_cells"] >= int64(posted-cap) &&
			m["compaction_cycles"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never reached steady state: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Lossless: every folded session remains queryable across tiers.
	cells, err := s.Store().Query(RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range cells {
		total += c.Sessions
	}
	if total != int64(posted) {
		t.Fatalf("%d sessions queryable; %d folded — retention lost data", total, posted)
	}

	// Visible in /healthz…
	hresp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if c := health.Counters; c["max_cells"] != cap || c["cells"] > cap {
		t.Errorf("healthz cells=%d max_cells=%d; want <=%d, %d", c["cells"], c["max_cells"], cap, cap)
	}
	if health.Counters["rollup_cells"] == 0 {
		t.Error("healthz rollup_cells = 0 after compaction")
	}
	if health.Counters["compacted_sessions"]+health.Counters["evicted_cells"] == 0 {
		t.Error("healthz retention counters never advanced")
	}

	// …and in /metrics (Prometheus text exposition).
	mresp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	text := body.String()
	for _, want := range []string{
		"# TYPE acutemon_compacted_cells_total counter",
		"# TYPE acutemon_rollup_cells gauge",
		"acutemon_cells ",
		"acutemon_max_cells 8",
		"acutemon_up 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
