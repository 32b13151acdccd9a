package ingest

import (
	"net/http"

	"repro/internal/puncture"
)

// Cluster integration points. The gossip layer lives in
// internal/cluster; this file is everything it needs from the ingest
// side — a delta export mirroring the /v1/stream cursor semantics, an
// epoch allocator so replicated cells ride the same stream cursor as
// local ones, and a ReplicaSource slot through which fleet-wide
// replicated state flows back into /stats, /v1/stream, /v1/profiles,
// /healthz, and /metrics. ingest never imports cluster; the dependency
// runs one way through this interface.

// ReplicaSource is the cluster layer's view of every peer's replicated
// state. All methods are snapshots safe for concurrent use. Replica
// cells are immutable once returned: the cluster layer replaces whole
// cells on merge rather than mutating them in place, so readers never
// need to clone.
type ReplicaSource interface {
	// ReplicaCells returns every cell replicated from every peer, each
	// stamped (via NextEpoch, at apply time) with this store's mutation
	// epoch so stream cursors cover them.
	ReplicaCells() []*Cell
	// ReplicaRemovals returns keys retracted from replicas after the
	// cursor. ok=false means the bounded removal log wrapped past the
	// cursor and the stream client must take a full resync — the same
	// contract as the store's own removal log.
	ReplicaRemovals(since int64) ([]Key, bool)
	// Knowledge returns each peer's replicated knowledge snapshot
	// (never mutated after apply; safe to merge repeatedly).
	Knowledge() []*puncture.Snapshot
	// Figures are appended to the server's own: every surface that
	// renders the figure list (/metrics as acutemon_cluster_*,
	// MetricsSnapshot, /healthz, /stats, /v1/cluster) carries them.
	Figures() []Figure
	// Health is embedded under the /healthz "cluster" key: per-peer
	// liveness state and last-merge epochs.
	Health() map[string]any
}

// replicaHolder wraps the interface so the atomic pointer has a
// concrete type to point at.
type replicaHolder struct{ src ReplicaSource }

// SetReplicaSource installs (or, with nil, removes) the cluster
// replica source. Safe to call while the server is live — queries pick
// it up on their next read.
func (s *Server) SetReplicaSource(src ReplicaSource) {
	if src == nil {
		s.repl.Store(nil)
		return
	}
	s.repl.Store(&replicaHolder{src: src})
}

func (s *Server) replicaSource() ReplicaSource {
	if h := s.repl.Load(); h != nil {
		return h.src
	}
	return nil
}

// Handle registers an extra handler on the server's mux — the hook the
// cluster layer uses to mount /v1/cluster and /v1/cluster/delta
// without ingest knowing their shapes. ServeMux.Handle is safe to call
// on a serving mux.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// PokeStream nudges /v1/stream subscribers that store-visible state
// changed outside a fold — the cluster layer calls it after merging a
// peer delta so fleet changes stream like local ones.
func (s *Server) PokeStream() {
	s.bcast.poke()
}

// Draining reports whether Shutdown has begun — cluster handlers use
// it to turn away gossip pulls during the drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// NextEpoch advances and returns the store's mutation epoch. The
// cluster layer stamps replica cells and replica retractions with it,
// so one /v1/stream cursor sequence spans local and replicated rows.
func (st *Store) NextEpoch() int64 { return st.epoch.Add(1) }

// CellDelta is the store's raw-cell delta export — what one gossip
// anti-entropy round carries. Unlike StreamEvent it holds full cells,
// not derived stats: the receiver must be able to merge them into
// fleet-wide aggregates under the usual merge laws.
type CellDelta struct {
	// Epoch is the cursor for the next round: every cell whose epoch
	// exceeds the requested cursor is included (cumulative state, so
	// re-delivery is idempotent).
	Epoch int64
	// Reset means the cursor could not be honored — it predates the
	// bounded removal log, or comes from a previous life of this store
	// (a restart) — and the delta is a full snapshot: the receiver must
	// drop its replica of this store before applying.
	Reset bool
	// Cells are deep clones, one per Key; callers own them.
	Cells   []*Cell
	Removed []Key
}

// CellDeltasSince computes the gossip delta for a cursor: the
// DeltasSince cursor rule (Store.cursor: epoch read first, removals up
// to it, a wrapped log or a cursor from the future → full-snapshot
// reset, racing folds re-delivered) applied to whole cells instead of
// derived stats. It carries one cell per Key, as Snapshot does: a
// receiver keeps its replica by Key, so a fine cell sent apart from its
// rollup twin would overwrite the twin's sessions.
func (st *Store) CellDeltasSince(since int64) CellDelta {
	epoch, removed, reset := st.cursor(since)
	d := CellDelta{Epoch: epoch, Reset: reset}
	if reset {
		// A reset delta is a full snapshot; retractions are subsumed by
		// the receiver-side wipe.
		since = 0
	}
	st.each(since, mergeTwins, func(c *Cell) { d.Cells = append(d.Cells, c.clone()) })
	sortCells(d.Cells)
	d.Removed = dedupKeys(removed)
	return d
}

// QueryWith merges the store's own cells with replicated cells at the
// rollup — the fleet-wide query path. Every rollup but RollupCell
// merges each stored cell straight into its accumulator under the
// stripe lock — Merge only reads its argument, so no per-cell clone is
// needed, keeping a /stats poll cheap even with the store near its cell
// cap. The accumulators merge a twin pair by key, so this walk reads
// the raw cells. RollupCell without replicated cells is a plain
// Snapshot, one cell per Key; with them it also goes through the
// merging accumulators: the same key can hold sessions on several peers
// and the fleet view must fold them into one row (reduce is the
// identity there, so keys are preserved).
func (st *Store) QueryWith(r Rollup, extra []*Cell) []*Cell {
	if len(extra) == 0 && (r == RollupCell || r == "") {
		return st.Snapshot()
	}
	merged := map[Key]*Cell{}
	mergeInto := func(c *Cell) {
		k := r.reduce(c.Key)
		dst, ok := merged[k]
		if !ok {
			dst = newCell(k)
			merged[k] = dst
		}
		dst.Merge(c)
	}
	st.each(0, twinsApart, mergeInto)
	for _, c := range extra {
		mergeInto(c)
	}
	out := make([]*Cell, 0, len(merged))
	for _, c := range merged {
		out = append(out, c)
	}
	sortCells(out)
	return out
}

// replicaCells returns every replicated cell, or nil on a single node.
func (s *Server) replicaCells() []*Cell {
	if src := s.replicaSource(); src != nil {
		return src.ReplicaCells()
	}
	return nil
}

// deltasSince is the /v1/stream delta path: local-only without a
// cluster, fleet-wide with one.
func (s *Server) deltasSince(since int64, r Rollup) StreamEvent {
	return s.store.deltasWith(since, r, s.replicaSource())
}

// GroupQuerier is the slice of the store VerifyAgainstReport needs.
// *Store implements it, and so does the fleet view (Server.Fleet), so
// the one checker verifies a merged multi-node fleet exactly like a
// single store.
type GroupQuerier interface {
	Query(r Rollup) ([]*Cell, error)
}

type queryFunc func(Rollup) ([]*Cell, error)

func (f queryFunc) Query(r Rollup) ([]*Cell, error) { return f(r) }

// Fleet returns the fleet-wide query view as a GroupQuerier: local and
// replicated cells merged at the rollup, one cell per reduced Key —
// what /stats serves when clustered. Without a cluster it is exactly
// Store.Query, which at RollupCell serves one cell per Key too.
func (s *Server) Fleet() GroupQuerier {
	return queryFunc(func(r Rollup) ([]*Cell, error) { return s.store.QueryWith(r, s.replicaCells()), nil })
}

// fleetProfiles builds the fleet-wide knowledge view: the local store's
// snapshot merged with every peer's replicated snapshot in a fresh
// throwaway store (MergeSnapshot clones, so retained replica snapshots
// are never mutated). Correction resolution keeps using the local
// store only — the fleet view is a query surface, not a puncture input.
func fleetProfiles(local *puncture.Store, src ReplicaSource) (*puncture.Snapshot, int, error) {
	fs := puncture.NewStore(0)
	if err := fs.MergeSnapshot(local.Snapshot()); err != nil {
		return nil, 0, err
	}
	for _, snap := range src.Knowledge() {
		if err := fs.MergeSnapshot(snap); err != nil {
			return nil, 0, err
		}
	}
	return fs.Snapshot(), fs.Len(), nil
}
