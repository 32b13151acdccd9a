package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
)

// TestClusterChaosConvergence is the cluster acceptance e2e: three
// nodes split a campaign, one is killed mid-campaign, and the
// survivors must still converge to the exact full-fleet aggregates —
// session/probe counts and histogram quantiles equal to the offline
// report, sketch percentiles within the documented rank-error bound —
// because the dead peer's shard survives as cumulative replicas.
// `make e2e-cluster` runs this under -race.
func TestClusterChaosConvergence(t *testing.T) {
	srvs := make([]*ingest.Server, 3)
	for i := range srvs {
		srvs[i] = startServer(t, ingest.Config{Window: -1, QueueDepth: 64})
	}
	nds := make([]*Node, 3)
	for i := range srvs {
		var peers []string
		for j := range srvs {
			if j != i {
				peers = append(peers, srvs[j].URL())
			}
		}
		nds[i] = joinNode(t, srvs[i], Config{
			NodeID: fmt.Sprintf("n%d", i), Peers: peers,
			Interval: 10 * time.Millisecond, SuspectAfter: 3, DeadAfter: 6,
			MaxBackoff: 100 * time.Millisecond,
		})
	}
	campaign, offline := buildCampaign(t, 48, 13)
	parts := splitCampaign(campaign, 3)

	// The doomed node (2) ingests its whole shard first; wait until both
	// survivors hold its full replica — the state the kill must not lose.
	doomedSessions := streamTo(t, srvs[2], parts[2])
	waitFolded(t, srvs[2], doomedSessions)
	for _, n := range []*Node{nds[0], nds[1]} {
		n := n
		waitUntil(t, 10*time.Second, "doomed shard replicated", func() bool {
			return n.StatusSnapshot().Counters["cluster_replicated_sessions"] >= doomedSessions
		})
	}

	// Survivors stream their shards concurrently; the kill lands while
	// they are mid-campaign.
	var wg sync.WaitGroup
	streamed := make([]int64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streamed[i] = streamTo(t, srvs[i], parts[i])
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nds[2].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srvs[2].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	waitFolded(t, srvs[0], streamed[0])
	waitFolded(t, srvs[1], streamed[1])

	// Exact convergence on both survivors, verified with the same
	// checker as the single-node acceptance test.
	for i, s := range srvs[:2] {
		s := s
		waitUntil(t, 15*time.Second, "post-kill fleet convergence", func() bool {
			return fleetSessions(t, s) == offline.Sessions
		})
		mismatches, _ := ingest.VerifyAgainstReport(s.Fleet(), offline)
		for _, m := range mismatches {
			t.Errorf("survivor %d: %s", i, m)
		}
	}

	// The failure detector on a survivor marks the dead peer.
	waitUntil(t, 15*time.Second, "dead peer detected", func() bool {
		for _, ps := range nds[0].StatusSnapshot().Peers {
			if ps.State == PeerDead {
				return true
			}
		}
		return false
	})
	// Its replica is still part of the fleet answer.
	if got := fleetSessions(t, srvs[0]); got != offline.Sessions {
		t.Errorf("fleet sessions after detection: %d, want %d", got, offline.Sessions)
	}
}

// TestClusterGossipMergesRemintedTwin: a late summary re-mints a fine
// cell in a compacted window aligned to the rollup width, so the fine
// cell shares its rollup's Key. Gossip must carry the pair as one cell —
// the receiver keeps its replica by Key, so a fine cell sent apart from
// its twin would overwrite the twin's sessions — and the peer's fleet
// view must hold every session the origin does.
// `make e2e-cluster` runs this under -race.
func TestClusterGossipMergesRemintedTwin(t *testing.T) {
	// Retention -1 keeps the janitor out: the test compacts by hand.
	cfg := ingest.Config{Window: time.Minute, Retention: -1}
	sA, sB := startServer(t, cfg), startServer(t, cfg)
	joinNode(t, sA, Config{NodeID: "a", Peers: []string{sB.URL()}, Interval: 10 * time.Millisecond})
	joinNode(t, sB, Config{NodeID: "b", Peers: []string{sA.URL()}, Interval: 10 * time.Millisecond})
	st := sA.Store()
	fold := func() {
		t.Helper()
		s := ingest.Summary{Device: "d", Group: "g", TimeMS: 600_000, Sent: 1,
			RTTs: []int64{int64(30 * time.Millisecond)}}
		if !st.Fold(&s, 0, ingest.SourceNone) {
			t.Fatal("fold dropped")
		}
	}
	converged := func() {
		t.Helper()
		cells, err := st.Query(ingest.RollupGroup)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, c := range cells {
			want += c.Sessions
		}
		waitUntil(t, 5*time.Second, fmt.Sprintf("B's fleet view to reach A's %d sessions", want), func() bool {
			return fleetSessions(t, sB) == want
		})
	}
	fold()
	if cells, _ := st.Compact(math.MaxInt64); cells != 1 {
		t.Fatalf("compacted %d cells, want 1", cells)
	}
	fold() // late: re-mints the fine cell under its rollup's Key
	converged()
	fold()
	fold()
	converged()
}

// TestClusterScaling checks near-linear ingest scaling from 2 to 4
// nodes: with per-node load held constant, a 4-node cluster must
// sustain ≥1.7× the aggregate session throughput of a 2-node cluster.
// Needs enough cores to actually run four nodes in parallel, so it
// skips on small machines and under -short.
func TestClusterScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 12 {
		t.Skipf("scaling measurement needs ≥12 cores, have %d", runtime.NumCPU())
	}
	const perNode = 150
	measure := func(nodes int) float64 {
		srvs := make([]*ingest.Server, nodes)
		for i := range srvs {
			srvs[i] = startServer(t, ingest.Config{Window: -1, QueueDepth: 64, FoldWorkers: 2})
		}
		for i := range srvs {
			var peers []string
			for j := range srvs {
				if j != i {
					peers = append(peers, srvs[j].URL())
				}
			}
			joinNode(t, srvs[i], Config{NodeID: fmt.Sprintf("s%d-%d", nodes, i),
				Peers: peers, Interval: 50 * time.Millisecond})
		}
		campaign, _ := buildCampaign(t, perNode*nodes, int64(100+nodes))
		campaign.Workers = 2
		parts := splitCampaign(campaign, nodes)
		total := int64(0)
		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := range srvs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := streamTo(t, srvs[i], parts[i])
				mu.Lock()
				total += n
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		for i := range srvs {
			waitUntil(t, 30*time.Second, "folded", func() bool {
				return srvs[i].MetricsSnapshot()["folded_summaries"] >= int64(len(parts[i].Sessions))
			})
		}
		elapsed := time.Since(start)
		return float64(total) / elapsed.Seconds()
	}
	// Best of two per size damps scheduler noise.
	best := func(nodes int) float64 {
		a, b := measure(nodes), measure(nodes)
		if b > a {
			return b
		}
		return a
	}
	t2 := best(2)
	t4 := best(4)
	ratio := t4 / t2
	t.Logf("2-node %.0f sessions/s, 4-node %.0f sessions/s, ratio %.2f", t2, t4, ratio)
	if ratio < 1.7 {
		t.Errorf("2→4 node scaling %.2fx, want ≥1.7x", ratio)
	}
}
