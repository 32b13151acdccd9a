package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/puncture"
)

// Config parameterises a cluster node.
type Config struct {
	// NodeID is this node's stable identity in gossip frames ("" → the
	// server's bound listen address). Two nodes must never share one.
	NodeID string
	// Peers are the static seed list: base URLs (or host:port) of every
	// other node. Empty is a single-node cluster — the node serves
	// deltas but pulls from nobody.
	Peers []string
	// Interval is the anti-entropy pull cadence per peer (0 → 1s).
	Interval time.Duration
	// Timeout bounds one delta pull (0 → max(2×Interval, 2s)).
	Timeout time.Duration
	// SuspectAfter / DeadAfter are consecutive pull failures before a
	// peer is marked suspect, then dead (0 → 2 and 6). A dead peer is
	// retried under exponential backoff instead of every tick; any
	// success returns it to alive (rejoin).
	SuspectAfter int
	DeadAfter    int
	// MaxBackoff caps the dead-peer retry backoff (0 → 16×Interval).
	MaxBackoff time.Duration
}

func (c *Config) fill(srv *ingest.Server) {
	if c.NodeID == "" {
		c.NodeID = srv.Addr()
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * c.Interval
		if c.Timeout < 2*time.Second {
			c.Timeout = 2 * time.Second
		}
	}
	if c.SuspectAfter < 1 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter * 3
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 16 * c.Interval
	}
}

// PeerState is the failure detector's verdict on one peer.
type PeerState string

const (
	// PeerAlive: the last pull succeeded.
	PeerAlive PeerState = "alive"
	// PeerSuspect: SuspectAfter consecutive pulls failed; replicas are
	// still served (they are cumulative state, not leases).
	PeerSuspect PeerState = "suspect"
	// PeerDead: DeadAfter consecutive pulls failed; retries back off
	// exponentially. One success rejoins the peer as alive.
	PeerDead PeerState = "dead"
)

// peer is one remote node's replica plus failure-detector state, all
// under one leaf mutex. The replica cells are immutable once stored:
// apply replaces whole cells, never mutates them, so readers can hand
// the pointers out lock-free after collecting them under p.mu.
type peer struct {
	addr string // base URL

	mu       sync.Mutex
	state    PeerState
	failures int
	backoff  time.Duration
	nextTry  time.Time
	lastOK   time.Time
	lastErr  string
	rejoins  int64
	resyncs  int64
	// bootID is the peer process lifetime the cursor belongs to; cursor
	// is its store epoch applied through, knowEpoch its knowledge epoch.
	bootID    string
	cursor    int64
	knowEpoch int64
	cells     map[ingest.Key]*ingest.Cell
	sessions  int64 // cached Σ cells[*].Sessions
	knowledge *puncture.Snapshot
}

// Node is one cluster member riding a running ingest server. It is the
// server's ReplicaSource: everything it replicates from peers flows
// into the fleet-wide /stats, /v1/stream, and /v1/profiles answers.
type Node struct {
	cfg    Config
	srv    *ingest.Server
	store  *ingest.Store
	know   *puncture.Store
	client *http.Client
	bootID string
	peers  []*peer

	// Replica retraction ring: removals received from peers, stamped
	// with store epochs so stream cursors span them. Kept separate from
	// the store's own removal log — entries here must never be
	// re-gossiped as local removals.
	removals ingest.RemovalLog

	rounds          atomic.Int64
	roundErrors     atomic.Int64
	served          atomic.Int64
	resyncs         atomic.Int64
	cellsApplied    atomic.Int64
	removalsApplied atomic.Int64
	knowledgeMerges atomic.Int64

	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Join wires a cluster node onto a running ingest server: it mounts
// /v1/cluster and /v1/cluster/delta, installs itself as the server's
// replica source, and starts one anti-entropy puller per peer. Stop
// the node (before the server's Shutdown) with Stop.
func Join(srv *ingest.Server, cfg Config) (*Node, error) {
	cfg.fill(srv)
	n := &Node{
		cfg:    cfg,
		srv:    srv,
		store:  srv.Store(),
		know:   srv.Puncturer().Store(),
		client: &http.Client{Timeout: cfg.Timeout},
		bootID: randomID(),
		stop:   make(chan struct{}),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	seen := map[string]bool{}
	for _, raw := range cfg.Peers {
		addr := strings.TrimRight(strings.TrimSpace(raw), "/")
		if addr == "" {
			continue
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		if _, err := url.Parse(addr); err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", raw, err)
		}
		if seen[addr] {
			continue
		}
		seen[addr] = true
		n.peers = append(n.peers, &peer{
			addr:  addr,
			state: PeerSuspect, // unproven until the first pull lands
			cells: make(map[ingest.Key]*ingest.Cell),
		})
	}
	srv.Handle("/v1/cluster/delta", http.HandlerFunc(n.handleDelta))
	srv.Handle("/v1/cluster", http.HandlerFunc(n.handleStatus))
	srv.SetReplicaSource(n)
	n.wg.Add(len(n.peers))
	for _, p := range n.peers {
		go n.run(p)
	}
	return n, nil
}

// Stop halts the anti-entropy pullers and detaches the node from its
// server (queries revert to local-only). The context bounds the wait
// for in-flight pulls; Stop is safe to call more than once.
func (n *Node) Stop(ctx context.Context) error {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.cancel()
		n.srv.SetReplicaSource(nil)
	})
	done := make(chan struct{})
	go func() {
		n.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NodeID returns the node's gossip identity.
func (n *Node) NodeID() string { return n.cfg.NodeID }

func randomID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("boot-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// run is one peer's anti-entropy loop: pull immediately, then on every
// tick the failure detector allows (dead peers wait out their backoff).
func (n *Node) run(p *peer) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		if p.due(time.Now()) {
			err := n.pullOnce(p)
			n.rounds.Add(1)
			if err != nil {
				n.roundErrors.Add(1)
			}
			n.observe(p, err)
		}
		select {
		case <-t.C:
		case <-n.stop:
			return
		}
	}
}

func (p *peer) due(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextTry.IsZero() || !now.Before(p.nextTry)
}

func (p *peer) cursors() (bootID string, since, know int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bootID, p.cursor, p.knowEpoch
}

// observe advances the failure detector after one pull.
func (n *Node) observe(p *peer, err error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err == nil {
		if p.state == PeerDead {
			p.rejoins++
		}
		p.state = PeerAlive
		p.failures = 0
		p.backoff = 0
		p.nextTry = time.Time{}
		p.lastOK = now
		p.lastErr = ""
		return
	}
	p.failures++
	p.lastErr = err.Error()
	switch {
	case p.failures >= n.cfg.DeadAfter:
		p.state = PeerDead
		if p.backoff < n.cfg.Interval {
			p.backoff = n.cfg.Interval
		}
		p.backoff *= 2
		if p.backoff > n.cfg.MaxBackoff {
			p.backoff = n.cfg.MaxBackoff
		}
		p.nextTry = now.Add(p.backoff)
	case p.failures >= n.cfg.SuspectAfter:
		p.state = PeerSuspect
	}
}

// pullOnce performs one anti-entropy round against p: request every
// change past our cursors, decode, and merge into the replica.
func (n *Node) pullOnce(p *peer) error {
	bootID, since, know := p.cursors()
	u := fmt.Sprintf("%s/v1/cluster/delta?since=%d&know=%d&boot=%s",
		p.addr, since, know, url.QueryEscape(bootID))
	ctx, cancel := context.WithTimeout(n.ctx, n.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s: status %s", p.addr, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxGossipFrameBytes+1))
	if err != nil {
		return err
	}
	d, err := DecodeDelta(body)
	if err != nil {
		return err
	}
	if d.NodeID == n.cfg.NodeID {
		return fmt.Errorf("cluster: peer %s answered with our own node id %q (self in -peers?)", p.addr, d.NodeID)
	}
	n.apply(p, d)
	return nil
}

// apply merges one delta into p's replica. Cells are replaced
// wholesale per key (cumulative state → idempotent: re-delivery
// converges to the same replica); a reset — the sender said so, its
// boot ID changed, or its epoch moved backwards — wipes the replica
// first and retracts whatever the full snapshot did not re-deliver.
func (n *Node) apply(p *peer, d *Delta) {
	var retracted []ingest.Key
	p.mu.Lock()
	reset := d.Reset || d.BootID != p.bootID || d.Epoch < p.cursor
	var old map[ingest.Key]*ingest.Cell
	if reset {
		old = p.cells
		p.cells = make(map[ingest.Key]*ingest.Cell, len(d.Cells))
		p.sessions = 0
		if len(old) > 0 || p.bootID != "" {
			p.resyncs++
			n.resyncs.Add(1)
		}
	}
	for _, k := range d.Removed {
		if c, ok := p.cells[k]; ok {
			delete(p.cells, k)
			p.sessions -= c.Sessions
			retracted = append(retracted, k)
			n.removalsApplied.Add(1)
		}
	}
	for _, c := range d.Cells {
		if prev, ok := p.cells[c.Key]; ok {
			p.sessions -= prev.Sessions
		}
		// Stamp with our store's epoch so /v1/stream cursors cover
		// replicated rows; the cell is immutable from here on.
		c.Epoch = n.store.NextEpoch()
		p.cells[c.Key] = c
		p.sessions += c.Sessions
		n.cellsApplied.Add(1)
	}
	if reset {
		for k := range old {
			if _, ok := p.cells[k]; !ok {
				retracted = append(retracted, k)
			}
		}
	}
	p.bootID, p.cursor = d.BootID, d.Epoch
	if d.Knowledge != nil {
		p.knowledge = d.Knowledge
		p.knowEpoch = d.KnowEpoch
		n.knowledgeMerges.Add(1)
	}
	changed := len(d.Cells) > 0 || len(retracted) > 0 || d.Knowledge != nil
	p.mu.Unlock()
	// The retraction ring is taken after p.mu is released — replica
	// merge holds at most one lock at a time.
	for _, k := range retracted {
		n.logRemoval(k)
	}
	if changed {
		n.srv.PokeStream()
	}
}

// logRemoval records one replica retraction under a fresh store epoch.
// The ring is bounded exactly like the store's own removal log; a
// stream cursor older than the floor forces a full resync.
func (n *Node) logRemoval(k ingest.Key) { n.removals.Log(n.store.NextEpoch(), k) }

// handleDelta answers GET /v1/cluster/delta?since=N&know=N&boot=ID
// with an ACMG frame. A cursor from another boot of this process — or
// ahead of our epoch, or behind the removal log — gets a full-snapshot
// reset, so a restarted responder or puller converges in one round.
func (n *Node) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if n.srv.Draining() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	since, err := parseCursor(q.Get("since"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	know, err := parseCursor(q.Get("know"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	forceReset := q.Get("boot") != n.bootID
	if forceReset {
		since, know = 0, 0
	}
	cd := n.store.CellDeltasSince(since)
	if forceReset && !cd.Reset {
		cd.Reset, cd.Removed = true, nil
	}
	frame := &Delta{
		NodeID:  n.cfg.NodeID,
		BootID:  n.bootID,
		Epoch:   cd.Epoch,
		Reset:   cd.Reset,
		Cells:   cd.Cells,
		Removed: cd.Removed,
	}
	// Knowledge rides the same round whenever the local store learned
	// anything past the puller's cursor. Always the full local snapshot
	// (MergeSnapshot is not idempotent, so the receiver replaces its
	// replica wholesale) and never replicated knowledge — transitive
	// re-gossip would double-count models on third nodes.
	if kEpoch := n.know.Epoch(); cd.Reset || kEpoch > know {
		snap := n.know.Snapshot()
		frame.Knowledge = snap
		frame.KnowEpoch = snap.Epoch
	}
	buf, err := AppendDelta(nil, frame)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.served.Add(1)
	w.Header().Set("Content-Type", GossipContentType)
	w.Write(buf)
}

func parseCursor(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("cluster: bad cursor %q (want a non-negative epoch)", s)
	}
	return v, nil
}

// PeerStatus is one peer's row in /v1/cluster and /healthz.
type PeerStatus struct {
	Peer            string    `json:"peer"`
	State           PeerState `json:"state"`
	LastMergeEpoch  int64     `json:"last_merge_epoch"`
	KnowledgeEpoch  int64     `json:"knowledge_epoch"`
	ReplicaCells    int       `json:"replica_cells"`
	ReplicaSessions int64     `json:"replica_sessions"`
	Failures        int       `json:"failures,omitempty"`
	Resyncs         int64     `json:"resyncs,omitempty"`
	Rejoins         int64     `json:"rejoins,omitempty"`
	// LastOKMSAgo is -1 until the first successful pull.
	LastOKMSAgo int64  `json:"last_ok_ms_ago"`
	RetryInMS   int64  `json:"retry_in_ms,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Status is the /v1/cluster JSON payload.
type Status struct {
	NodeID           string           `json:"node_id"`
	BootID           string           `json:"boot_id"`
	Epoch            int64            `json:"epoch"`
	GossipIntervalMS int64            `json:"gossip_interval_ms"`
	Peers            []PeerStatus     `json:"peers"`
	Counters         map[string]int64 `json:"counters"`
}

func (n *Node) peerStatuses() []PeerStatus {
	now := time.Now()
	out := make([]PeerStatus, 0, len(n.peers))
	for _, p := range n.peers {
		p.mu.Lock()
		ps := PeerStatus{
			Peer:            p.addr,
			State:           p.state,
			LastMergeEpoch:  p.cursor,
			KnowledgeEpoch:  p.knowEpoch,
			ReplicaCells:    len(p.cells),
			ReplicaSessions: p.sessions,
			Failures:        p.failures,
			Resyncs:         p.resyncs,
			Rejoins:         p.rejoins,
			LastOKMSAgo:     -1,
			Error:           p.lastErr,
		}
		if !p.lastOK.IsZero() {
			ps.LastOKMSAgo = now.Sub(p.lastOK).Milliseconds()
		}
		if !p.nextTry.IsZero() && p.nextTry.After(now) {
			ps.RetryInMS = p.nextTry.Sub(now).Milliseconds()
		}
		p.mu.Unlock()
		out = append(out, ps)
	}
	return out
}

// StatusSnapshot returns the node's current cluster status.
func (n *Node) StatusSnapshot() Status {
	return Status{
		NodeID:           n.cfg.NodeID,
		BootID:           n.bootID,
		Epoch:            n.store.Epoch(),
		GossipIntervalMS: n.cfg.Interval.Milliseconds(),
		Peers:            n.peerStatuses(),
		Counters:         n.Counters(),
	}
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.StatusSnapshot())
}

// --- ingest.ReplicaSource ---

// ReplicaCells returns every replicated cell across all peers. The
// pointers are safe to share: apply replaces cells, never mutates them.
func (n *Node) ReplicaCells() []*ingest.Cell {
	var out []*ingest.Cell
	for _, p := range n.peers {
		p.mu.Lock()
		for _, c := range p.cells {
			out = append(out, c)
		}
		p.mu.Unlock()
	}
	return out
}

// ReplicaRemovals returns replica retractions past the cursor; ok is
// false when the bounded ring wrapped and the caller must resync.
func (n *Node) ReplicaRemovals(since int64) ([]ingest.Key, bool) { return n.removals.Since(since) }

// Knowledge returns each peer's replicated knowledge snapshot.
func (n *Node) Knowledge() []*puncture.Snapshot {
	var out []*puncture.Snapshot
	for _, p := range n.peers {
		p.mu.Lock()
		if p.knowledge != nil {
			out = append(out, p.knowledge)
		}
		p.mu.Unlock()
	}
	return out
}

// Counters exports the acutemon_cluster_* metric set.
func (n *Node) Counters() map[string]int64 {
	m := map[string]int64{
		"cluster_peers":                   int64(len(n.peers)),
		"cluster_rounds":                  n.rounds.Load(),
		"cluster_round_errors":            n.roundErrors.Load(),
		"cluster_deltas_served":           n.served.Load(),
		"cluster_resyncs":                 n.resyncs.Load(),
		"cluster_replicated_cell_updates": n.cellsApplied.Load(),
		"cluster_replicated_removals":     n.removalsApplied.Load(),
		"cluster_knowledge_merges":        n.knowledgeMerges.Load(),
	}
	var alive, cells int64
	var sessions, models int64
	minEpoch := int64(-1)
	for _, p := range n.peers {
		p.mu.Lock()
		if p.state == PeerAlive {
			alive++
		}
		cells += int64(len(p.cells))
		sessions += p.sessions
		if p.knowledge != nil {
			models += int64(len(p.knowledge.Profiles))
		}
		if minEpoch < 0 || p.cursor < minEpoch {
			minEpoch = p.cursor
		}
		p.mu.Unlock()
	}
	if minEpoch < 0 {
		minEpoch = 0
	}
	m["cluster_peers_alive"] = alive
	m["cluster_replica_cells"] = cells
	m["cluster_replicated_sessions"] = sessions
	m["cluster_replica_models"] = models
	m["cluster_last_merge_epoch_min"] = minEpoch
	return m
}

// Health is the /healthz "cluster" section: identity plus per-peer
// liveness and last-merge epochs.
func (n *Node) Health() map[string]any {
	return map[string]any{
		"node_id": n.cfg.NodeID,
		"boot_id": n.bootID,
		"peers":   n.peerStatuses(),
	}
}
