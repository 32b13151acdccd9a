package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

func startServer(t testing.TB, cfg ingest.Config) *ingest.Server {
	t.Helper()
	s, err := ingest.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func joinNode(t testing.TB, s *ingest.Server, cfg Config) *Node {
	t.Helper()
	n, err := Join(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		n.Stop(ctx)
	})
	return n
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitFolded(t testing.TB, s *ingest.Server, n int64) {
	t.Helper()
	waitUntil(t, 10*time.Second, fmt.Sprintf("%d folded summaries", n), func() bool {
		return s.MetricsSnapshot()["folded_summaries"] >= n
	})
}

// fleetSessions sums sessions over the server's fleet-wide view.
func fleetSessions(t testing.TB, s *ingest.Server) int64 {
	t.Helper()
	cells, err := s.Fleet().Query(ingest.RollupGroup)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range cells {
		n += c.Sessions
	}
	return n
}

// buildCampaign returns a seeded campaign plus its offline ground truth.
func buildCampaign(t testing.TB, sessions int, seed int64) (fleet.Campaign, *fleet.Report) {
	t.Helper()
	sc, ok := fleet.ScenarioByName("device-mix")
	if !ok {
		t.Fatal("device-mix scenario missing")
	}
	campaign := fleet.Campaign{
		Name:     "cluster-e2e",
		Scenario: "device-mix",
		Seed:     seed,
		Workers:  4,
		Sessions: sc.Build(fleet.Params{Sessions: sessions, Seed: seed, Probes: 12}),
	}
	offline, err := fleet.RunContext(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Errors != 0 {
		t.Fatalf("offline campaign errors: %v", offline.FirstErrors)
	}
	return campaign, offline
}

// splitCampaign slices a campaign into n equal-ish sub-campaigns —
// each node ingests its own shard of the fleet. Per-session seeds are
// pinned from the session's index in the FULL campaign first: the
// runner derives a zero seed from the campaign-local position, which
// changes when the slice is resliced, and the shards must reproduce
// the exact sessions the offline ground-truth run executed.
func splitCampaign(c fleet.Campaign, n int) []fleet.Campaign {
	out := make([]fleet.Campaign, n)
	for i := range out {
		out[i] = c
		out[i].Sessions = nil
	}
	for i, s := range c.Sessions {
		if s.Seed == 0 {
			s.Seed = fleet.SeedFor(c.Seed, i)
		}
		out[i%n].Sessions = append(out[i%n].Sessions, s)
	}
	return out
}

func streamTo(t testing.TB, s *ingest.Server, c fleet.Campaign) int64 {
	t.Helper()
	lg := &ingest.LoadGen{URL: s.URL(), Wire: ingest.WireJSON, BatchSize: 10, TimeMS: 1}
	defer lg.Close()
	rep, err := lg.StreamCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("streamed campaign errors: %v", rep.FirstErrors)
	}
	return rep.Sessions
}

func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTwoNodeConvergence is the basic anti-entropy e2e: two
// nodes each ingest half a campaign and both must converge to the
// exact fleet-wide aggregates — equal to the offline report — while
// /stats, /healthz, /metrics, /v1/cluster, and /v1/profiles all
// surface the replicated state.
func TestClusterTwoNodeConvergence(t *testing.T) {
	sA := startServer(t, ingest.Config{Window: -1, QueueDepth: 64})
	sB := startServer(t, ingest.Config{Window: -1, QueueDepth: 64})
	interval := 10 * time.Millisecond
	joinNode(t, sA, Config{NodeID: "a", Peers: []string{sB.URL()}, Interval: interval})
	joinNode(t, sB, Config{NodeID: "b", Peers: []string{sA.URL()}, Interval: interval})

	campaign, offline := buildCampaign(t, 40, 7)
	parts := splitCampaign(campaign, 2)
	nStreamedA := streamTo(t, sA, parts[0])
	nStreamedB := streamTo(t, sB, parts[1])
	waitFolded(t, sA, nStreamedA)
	waitFolded(t, sB, nStreamedB)

	// Both nodes answer for the whole fleet.
	for _, s := range []*ingest.Server{sA, sB} {
		waitUntil(t, 10*time.Second, "fleet convergence", func() bool {
			return fleetSessions(t, s) == offline.Sessions
		})
		mismatches, _ := ingest.VerifyAgainstReport(s.Fleet(), offline)
		for _, m := range mismatches {
			t.Errorf("%s: %s", s.Addr(), m)
		}
	}

	// Knowledge learned on A reaches B's fleet profile view.
	ms := int64(time.Millisecond)
	delta := puncture.NewStore(0)
	delta.RecordAttribution("Cluster Phone", "BCM4339", 2*ms, 3*ms, 5*ms)
	if err := sA.Puncturer().Store().MergeSnapshot(delta.Snapshot()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "knowledge replication", func() bool {
		var profs struct {
			Profiles []puncture.DeviceProfile `json:"profiles"`
		}
		getJSON(t, sB.URL()+"/v1/profiles", &profs)
		for _, p := range profs.Profiles {
			if p.Model == "Cluster Phone" {
				return true
			}
		}
		return false
	})
	// ?scope=local must NOT include the replicated model — that is the
	// view gossip itself exchanges, and transitive re-gossip would
	// double-count knowledge on third nodes.
	var local struct {
		Profiles []puncture.DeviceProfile `json:"profiles"`
	}
	getJSON(t, sB.URL()+"/v1/profiles?scope=local", &local)
	for _, p := range local.Profiles {
		if p.Model == "Cluster Phone" {
			t.Error("scope=local leaked a replicated profile")
		}
	}

	// /stats carries the cluster counters and the footer names them.
	var stats ingest.StatsResponse
	getJSON(t, sA.URL()+"/stats", &stats)
	if stats.Counters["cluster_peers"] != 1 || stats.Counters["cluster_peers_alive"] != 1 {
		t.Errorf("cluster gauges: %+v", stats.Counters)
	}
	if got := stats.Counters["cluster_replicated_sessions"]; got != nStreamedB {
		t.Errorf("replicated sessions %d, want %d", got, nStreamedB)
	}
	if txt := ingest.RenderStats(stats); !strings.Contains(txt, "cluster: local=") {
		t.Errorf("stats footer missing cluster line:\n%s", txt)
	}

	// /healthz exposes per-peer liveness and last-merge epochs.
	var health map[string]any
	getJSON(t, sA.URL()+"/healthz", &health)
	cl, ok := health["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cluster section: %v", health)
	}
	peers, ok := cl["peers"].([]any)
	if !ok || len(peers) != 1 {
		t.Fatalf("healthz cluster peers: %v", cl)
	}
	p0 := peers[0].(map[string]any)
	if p0["state"] != string(PeerAlive) || p0["last_merge_epoch"].(float64) <= 0 {
		t.Errorf("healthz peer row: %v", p0)
	}

	// /metrics renders the gauge set.
	resp, err := http.Get(sA.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"acutemon_cluster_peers 1", "acutemon_cluster_peers_alive 1", "acutemon_cluster_rounds_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /v1/cluster reports the node's own identity and peer table.
	var status Status
	getJSON(t, sA.URL()+"/v1/cluster", &status)
	if status.NodeID != "a" || len(status.Peers) != 1 || status.Peers[0].State != PeerAlive {
		t.Errorf("cluster status: %+v", status)
	}
	if status.Peers[0].ReplicaSessions != nStreamedB {
		t.Errorf("peer replica sessions %d, want %d", status.Peers[0].ReplicaSessions, nStreamedB)
	}
}

// TestClusterRestartResync pins the boot-ID protocol: when a peer dies
// and a fresh process takes its address, the puller must discard the
// stale replica (the old process's epochs mean nothing) and resync to
// the new process's snapshot — converging on the new truth, including
// retracting cells the new process never folded.
func TestClusterRestartResync(t *testing.T) {
	sB, err := ingest.Start(ingest.Config{Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr := sB.Addr()
	joinNode(t, sB, Config{NodeID: "b", Interval: 5 * time.Millisecond})

	sA := startServer(t, ingest.Config{Window: -1})
	nA := joinNode(t, sA, Config{
		NodeID: "a", Peers: []string{addr},
		Interval: 5 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4, MaxBackoff: 20 * time.Millisecond,
	})

	// First life: B folds 3 sessions; A replicates them.
	ms := int64(time.Millisecond)
	st := sB.Store()
	for i := 0; i < 3; i++ {
		s := ingest.Summary{Device: "Old Phone", Group: "old", Sent: 1, RTTs: []int64{30 * ms}}
		if !st.Fold(&s, 0, ingest.SourceNone) {
			t.Fatal("fold refused")
		}
	}
	waitUntil(t, 10*time.Second, "first replication", func() bool {
		return fleetSessions(t, sA) == 3
	})

	// Kill B; a new process takes the same address with different data.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var sB2 *ingest.Server
	waitUntil(t, 10*time.Second, "address reuse", func() bool {
		sB2, err = ingest.Start(ingest.Config{Window: -1, Addr: addr})
		return err == nil
	})
	t.Cleanup(func() { sB2.Shutdown(context.Background()) })
	joinNode(t, sB2, Config{NodeID: "b2", Interval: 5 * time.Millisecond})
	for i := 0; i < 5; i++ {
		s := ingest.Summary{Device: "New Phone", Group: "new", Sent: 1, RTTs: []int64{40 * ms}}
		if !sB2.Store().Fold(&s, 0, ingest.SourceNone) {
			t.Fatal("fold refused")
		}
	}

	// A must converge on the new process's truth: 5 sessions, the old
	// replica fully retracted.
	waitUntil(t, 10*time.Second, "resync to the new boot", func() bool {
		cells, err := sA.Fleet().Query(ingest.RollupGroup)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, c := range cells {
			if c.Key.Group == "old" {
				return false
			}
			total += c.Sessions
		}
		return total == 5
	})
	if got := nA.Counters()["cluster_resyncs"]; got < 1 {
		t.Errorf("resyncs = %d, want ≥1", got)
	}
	// The retraction rode the replica removal ring, so a fleet stream
	// cursor from before the restart sees the old key retracted.
	if removed, ok := nA.ReplicaRemovals(0); !ok || len(removed) == 0 {
		t.Errorf("replica removals after resync: %v ok=%v", removed, ok)
	}
}

// TestClusterFailureDetector walks one peer through
// alive → suspect → dead (with backoff) → rejoin.
func TestClusterFailureDetector(t *testing.T) {
	// Reserve an address nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	sA := startServer(t, ingest.Config{Window: -1})
	nA := joinNode(t, sA, Config{
		NodeID: "a", Peers: []string{deadAddr},
		Interval: 5 * time.Millisecond, Timeout: 250 * time.Millisecond,
		SuspectAfter: 2, DeadAfter: 4, MaxBackoff: 25 * time.Millisecond,
	})
	states := func() PeerStatus { return nA.StatusSnapshot().Peers[0] }
	waitUntil(t, 10*time.Second, "suspect", func() bool { return states().State == PeerSuspect })
	waitUntil(t, 10*time.Second, "dead", func() bool { return states().State == PeerDead })
	if s := states(); s.Failures < 4 {
		t.Errorf("dead with %d failures, want ≥4", s.Failures)
	}

	// Resurrect the peer at the same address: the node must rejoin it.
	var sB *ingest.Server
	waitUntil(t, 10*time.Second, "address bind", func() bool {
		var err error
		sB, err = ingest.Start(ingest.Config{Window: -1, Addr: deadAddr})
		return err == nil
	})
	t.Cleanup(func() { sB.Shutdown(context.Background()) })
	joinNode(t, sB, Config{NodeID: "b", Interval: time.Hour})
	waitUntil(t, 10*time.Second, "rejoin", func() bool {
		s := states()
		return s.State == PeerAlive && s.Rejoins >= 1
	})
	if got := nA.Counters()["cluster_peers_alive"]; got != 1 {
		t.Errorf("peers alive = %d", got)
	}
}

// TestClusterConvergenceProperty is the protocol's safety property:
// anti-entropy rounds delivered in shuffled order, duplicated, or
// dropped entirely must still converge every node's replicas to
// byte-identical copies of each origin's local store once a final
// clean round runs — because deltas carry full cumulative cells and
// resets retract what a snapshot does not re-deliver.
func TestClusterConvergenceProperty(t *testing.T) {
	const nodes = 3
	rng := rand.New(rand.NewSource(23))
	srvs := make([]*ingest.Server, nodes)
	nds := make([]*Node, nodes)
	for i := range srvs {
		srvs[i] = startServer(t, ingest.Config{Window: -1})
	}
	for i := range srvs {
		var peers []string
		for j := range srvs {
			if j != i {
				peers = append(peers, srvs[j].URL())
			}
		}
		// A huge interval: after the immediate first pull the background
		// loop idles, and the test drives rounds by hand.
		nds[i] = joinNode(t, srvs[i], Config{NodeID: fmt.Sprintf("n%d", i), Peers: peers, Interval: time.Hour})
	}

	campaign, _ := buildCampaign(t, 30, 11)
	parts := splitCampaign(campaign, nodes)
	for i, part := range parts {
		streamed := streamTo(t, srvs[i], part)
		waitFolded(t, srvs[i], streamed)
	}

	// Chaos rounds: random (puller, origin) pairs; each fetched frame is
	// applied once, twice (duplicate delivery), or not at all (partial
	// delivery / lost response) — all through the real wire codec.
	fetch := func(p *peer) *Delta {
		boot, since, know := p.cursors()
		resp, err := http.Get(fmt.Sprintf("%s/v1/cluster/delta?since=%d&know=%d&boot=%s", p.addr, since, know, boot))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeDelta(body)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for round := 0; round < 60; round++ {
		i := rng.Intn(nodes)
		p := nds[i].peers[rng.Intn(len(nds[i].peers))]
		d := fetch(p)
		switch rng.Intn(3) {
		case 0: // delivered once
			nds[i].apply(p, d)
		case 1: // delivered twice
			nds[i].apply(p, d)
			nds[i].apply(p, d)
		case 2: // lost
		}
		// Occasionally mutate an origin mid-gossip so later rounds carry
		// fresh deltas, not just replays.
		if round%7 == 0 {
			s := ingest.Summary{Device: fmt.Sprintf("Churn %d", round), Group: "churn",
				Sent: 1, RTTs: []int64{int64(20+round) * int64(time.Millisecond)}}
			if !srvs[rng.Intn(nodes)].Store().Fold(&s, 0, ingest.SourceNone) {
				t.Fatal("fold refused")
			}
		}
	}

	// Final clean sweep: every pair pulls until a round carries nothing.
	for i, n := range nds {
		for _, p := range n.peers {
			for sweep := 0; ; sweep++ {
				if sweep > 10 {
					t.Fatalf("node %d: no quiescence against %s", i, p.addr)
				}
				d := fetch(p)
				n.apply(p, d)
				if !d.Reset && len(d.Cells) == 0 && len(d.Removed) == 0 {
					break
				}
			}
		}
	}

	// Every replica is byte-identical to its origin's local snapshot.
	addrOf := map[string]*ingest.Server{}
	for _, s := range srvs {
		addrOf[s.URL()] = s
	}
	for i, n := range nds {
		for _, p := range n.peers {
			origin := addrOf[p.addr]
			want := origin.Store().Snapshot()
			p.mu.Lock()
			got := make([]*ingest.Cell, 0, len(p.cells))
			for _, c := range p.cells {
				got = append(got, c)
			}
			p.mu.Unlock()
			if a, b := cellsJSON(t, got), cellsJSON(t, want); a != b {
				t.Errorf("node %d replica of %s diverged from origin:\n%s\n%s", i, p.addr, a, b)
			}
		}
	}
}
