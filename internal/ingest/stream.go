package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Live stats streaming. /stats is a poll; /v1/stream is a push: the
// server fans out *deltas* — the derived stats of every cell that
// changed since the client's cursor, plus retractions for cells
// retention removed — over Server-Sent Events, with a long-poll
// fallback (?poll=1) for clients that cannot hold an SSE connection.
//
// The cursor is the store's mutation epoch: every fold, compaction,
// and removal bumps it, each cell remembers the epoch of its last
// change, and DeltasSince(cursor) is simply "every cell newer than the
// cursor". Because each delta carries the cell's *current cumulative*
// stats (not an increment), deltas are naturally coalescing: a slow
// client that misses ten broadcasts catches up with one event, and
// folding the latest event per key reproduces exactly what /stats
// would return. The broadcaster never buffers events per client — it
// only wakes subscribers (one-slot wake channels), and each subscriber
// computes its own deltas at its own pace.

// StreamEvent is one /v1/stream delta (also the ?poll=1 JSON body).
// Apply Removed before Cells: a key present in both was removed and
// re-minted, and the new row wins.
type StreamEvent struct {
	// Epoch is the cursor to resume from (?since= / Last-Event-ID).
	Epoch int64 `json:"epoch"`
	// Rollup echoes the subscription's cell granularity.
	Rollup   Rollup `json:"rollup"`
	WindowMS int64  `json:"window_ms,omitempty"`
	// Reset is set when the client's cursor cannot be honored — it
	// predates the removal log, or is ahead of the store's epoch (the
	// daemon restarted): the event carries a full snapshot and the
	// client must drop every row it holds before applying it.
	Reset bool `json:"reset,omitempty"`
	// Cells are the changed cells' current cumulative stats.
	Cells []CellStats `json:"cells,omitempty"`
	// Removed lists keys retention removed from the fine or rollup
	// tier (compaction, eviction, overflow collapse) that have no
	// surviving row at this rollup.
	Removed []Key `json:"removed,omitempty"`
}

// DeltasSince computes the stream event for a cursor at the given
// rollup: every cell whose epoch exceeds since, plus retractions, under
// the cursor rule gossip deltas share (Store.cursor): the returned
// event's Epoch is read before the removal log and the scan, and a
// cursor the log has wrapped past or one ahead of the epoch gets a
// full-snapshot reset. Deltas are idempotent — latest state per key —
// so a fold racing the scan is re-delivered next time rather than lost.
// The error is always nil.
func (st *Store) DeltasSince(since int64, r Rollup) (StreamEvent, error) {
	return st.deltasWith(since, r, nil), nil
}

// deltasWith generalizes DeltasSince over an optional replica source:
// with one, changed replicated cells ride the same cursor (the cluster
// layer stamps them from NextEpoch at apply time), same-key cells merge
// across peers, and a wrapped replica removal log forces the same full
// resync as a wrapped local one.
func (st *Store) deltasWith(since int64, r Rollup, src ReplicaSource) StreamEvent {
	epoch, removed, reset := st.cursor(since)
	ev := StreamEvent{Rollup: r, WindowMS: st.windowMS, Epoch: epoch, Reset: reset}
	if src != nil && !reset {
		// Replica removals past ev.Epoch come again next time; this
		// subscription merges, where a repeat only re-emits a row.
		extraRemoved, rok := src.ReplicaRemovals(since)
		ev.Reset = !rok
		removed = append(removed, extraRemoved...)
	}
	if ev.Reset {
		since, removed = 0, nil
	}
	ev.Cells, ev.Removed = st.rows(since, r, src, removed)
	return ev
}

// rows is the one builder of /stats and /v1/stream rows: the store's
// rows at rollup r, merged with the replica source's cells (nil on a
// single node), for the keys that changed since `since` — every key
// when since is 0 — plus the changed keys left with no row. A key in
// removed counts as changed: its row re-emits (same totals, fewer
// constituents), or the key comes back in gone if nothing survived.
//
// RollupCell on a single node merges nothing, so its rows come straight
// off the store walk, one per Key, derived under the stripe locks
// rather than from deep clones: a clone copies both histograms' stored
// spans (up to ~16 KiB for a wide cell) and both sketches, so with the
// store near its cell cap cloning would be tens to hundreds of MiB of
// transient allocation per dashboard poll. Every other view reads
// QueryWith's merged cells, which need no clone either. A clustered
// node takes that path even at RollupCell, where reduce is the
// identity, because the same key can hold sessions on several peers.
func (st *Store) rows(since int64, r Rollup, src ReplicaSource, removed []Key) (rows []CellStats, gone []Key) {
	if r == RollupCell && src == nil {
		st.each(since, mergeTwins, func(c *Cell) { rows = append(rows, StatsFor(c)) })
		sortCellStats(rows)
		return rows, dedupKeys(removed)
	}
	// Replica cells are collected after the caller's epoch read for the
	// same reason the store walk is: an apply racing this call stamps a
	// higher epoch and is re-delivered next time rather than lost.
	var extra []*Cell
	if src != nil {
		extra = src.ReplicaCells()
	}
	changed := map[Key]bool{}
	for _, k := range removed {
		changed[r.reduce(k)] = true
	}
	if since > 0 {
		collect := func(c *Cell) { changed[r.reduce(c.Key)] = true }
		st.each(since, twinsApart, collect)
		for _, c := range extra {
			if c.Epoch > since {
				collect(c)
			}
		}
		if len(changed) == 0 {
			return nil, nil
		}
	}
	all := st.QueryWith(r, extra)
	if since == 0 {
		rows = make([]CellStats, 0, len(all))
	}
	for _, c := range all {
		if since == 0 || changed[c.Key] {
			rows = append(rows, StatsFor(c))
		}
		delete(changed, c.Key)
	}
	for k := range changed {
		gone = append(gone, k)
	}
	sort.Slice(gone, func(i, j int) bool { return keyLess(gone[i], gone[j]) })
	return rows, gone
}

// cursor is the one rule for honoring a delta cursor, shared by stream
// and gossip deltas. It reads the store's epoch first, then the
// removals in (since, epoch]: every removal at or below the epoch is
// in the list, and a fold racing the caller's scan stamps a higher
// epoch and is re-delivered next time rather than lost. reset reports
// a cursor that cannot be honored — the bounded removal log has
// overwritten entries past it, or it is ahead of the epoch, a cursor
// from a previous life of this store (a restart rewound the counter).
// The caller must then send a full snapshot and the receiver drop
// every row it holds.
func (st *Store) cursor(since int64) (epoch int64, removed []Key, reset bool) {
	epoch = st.epoch.Load()
	removed, ok := st.removals.Since(since, epoch)
	if since > epoch || !ok {
		return epoch, nil, true
	}
	return epoch, removed, false
}

func dedupKeys(keys []Key) []Key {
	if len(keys) == 0 {
		return nil
	}
	seen := make(map[Key]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i], out[j]) })
	return out
}

func sortCellStats(out []CellStats) {
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
}

// filter applies the /stats- and /v1/stream-shared key filters to an
// event in place.
func (ev *StreamEvent) filter(f cellFilter) {
	if f.empty() {
		return
	}
	ev.Cells = f.keep(ev.Cells)
	removed := ev.Removed[:0]
	for _, k := range ev.Removed {
		if f.match(k) {
			removed = append(removed, k)
		}
	}
	ev.Removed = removed
}

var (
	errStreamDraining = errors.New("ingest: stream draining")
	errStreamFull     = errors.New("ingest: subscriber limit reached")
)

// subscriber is one stream client's wake handle. The one-slot channel
// is the whole per-client queue: a wake that finds it full is
// coalesced (the client will compute a bigger delta when it gets
// there), never buffered.
type subscriber struct {
	wake chan struct{}
}

// broadcaster fans fold/compaction activity out to subscribers: fold
// workers poke it (non-blocking), it coalesces pokes for the broadcast
// interval, then wakes every subscriber once.
type broadcaster struct {
	interval  time.Duration
	notify    chan struct{}
	stop      chan struct{}
	drain     chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	max       int
	coalesced atomic.Int64
}

func newBroadcaster(interval time.Duration, maxSubs int) *broadcaster {
	b := &broadcaster{
		interval: interval,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		drain:    make(chan struct{}),
		done:     make(chan struct{}),
		subs:     make(map[*subscriber]struct{}),
		max:      maxSubs,
	}
	go b.run()
	return b
}

// poke signals that store state changed. Non-blocking and cheap — the
// fold loops call it once per drained job.
func (b *broadcaster) poke() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

func (b *broadcaster) run() {
	defer close(b.done)
	for {
		select {
		case <-b.notify:
		case <-b.stop:
			return
		}
		if b.interval > 0 {
			t := time.NewTimer(b.interval)
			select {
			case <-t.C:
			case <-b.stop:
				t.Stop()
				return
			}
		}
		// Drain the poke that accumulated during the coalescing sleep
		// *before* waking: any fold after this point re-pokes and is
		// picked up next round, so no update is ever unannounced.
		select {
		case <-b.notify:
		default:
		}
		b.wakeAll()
	}
}

func (b *broadcaster) wakeAll() {
	b.mu.Lock()
	for sub := range b.subs {
		select {
		case sub.wake <- struct{}{}:
		default:
			b.coalesced.Add(1)
		}
	}
	b.mu.Unlock()
}

func (b *broadcaster) subscribe() (*subscriber, error) {
	select {
	case <-b.drain:
		return nil, errStreamDraining
	default:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) >= b.max {
		return nil, errStreamFull
	}
	sub := &subscriber{wake: make(chan struct{}, 1)}
	b.subs[sub] = struct{}{}
	return sub, nil
}

func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

func (b *broadcaster) count() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.subs))
}

// shutdown wakes every subscriber with the drain signal (handlers
// flush their final deltas and return, unblocking http.Shutdown) and
// stops the run loop. Safe to call more than once.
func (b *broadcaster) shutdown() {
	b.closeOnce.Do(func() {
		close(b.drain)
		close(b.stop)
	})
	<-b.done
}

// Stream timing knobs: writes that stall past the write timeout drop
// the subscriber (counted) — that is the slow-client bound; heartbeat
// comments keep idle connections alive through proxies.
const (
	streamWriteTimeout  = 10 * time.Second
	streamHeartbeat     = 15 * time.Second
	longPollDefaultWait = 30 * time.Second
	longPollMaxWait     = 5 * time.Minute
)

// handleStream serves GET /v1/stream: SSE by default, one-shot
// long-poll JSON with ?poll=1. Query params mirror /stats (by=,
// device=, group=, scenario=) plus the cursor: ?since=<epoch> (or the
// SSE Last-Event-ID header) resumes after the given epoch; absent, the
// first event is a full snapshot.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	rollup, err := ParseRollup(q.Get("by"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	filter := filterFromQuery(q)
	since := int64(0)
	cursor := q.Get("since")
	if cursor == "" {
		cursor = r.Header.Get("Last-Event-ID")
	}
	if cursor != "" {
		since, err = strconv.ParseInt(cursor, 10, 64)
		if err != nil || since < 0 {
			http.Error(w, "bad since cursor (want a non-negative epoch)", http.StatusBadRequest)
			return
		}
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	sub, err := s.bcast.subscribe()
	if err != nil {
		s.metrics.StreamRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.bcast.unsubscribe(sub)

	if q.Get("poll") != "" && q.Get("poll") != "0" {
		s.longPoll(w, r, sub, rollup, filter, since, q.Get("wait"))
		return
	}
	s.serveSSE(w, r, sub, rollup, filter, since)
}

// serveSSE pushes deltas until the client leaves or the server drains.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *subscriber,
	rollup Rollup, filter cellFilter, since int64) {
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	hello := fmt.Sprintf(`{"rollup":%q,"window_ms":%d,"epoch":%d}`, rollup, s.store.windowMS, since)
	if !s.writeSSE(rc, w, "hello", since, []byte(hello)) {
		return
	}
	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	for {
		ev := s.deltasSince(since, rollup)
		ev.filter(filter)
		if ev.Reset || len(ev.Cells) > 0 || len(ev.Removed) > 0 {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if !s.writeSSE(rc, w, "delta", ev.Epoch, data) {
				return
			}
			s.metrics.StreamEvents.Add(1)
		}
		since = ev.Epoch

		select {
		case <-sub.wake:
		case <-hb.C:
			rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				s.metrics.StreamDropped.Add(1)
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			return
		case <-s.bcast.drain:
			// Final flush: deliver whatever folded since the last wake,
			// then tell the client the stream is over (poll /stats for
			// anything still queued behind the drain).
			ev := s.deltasSince(since, rollup)
			ev.filter(filter)
			if len(ev.Cells) > 0 || len(ev.Removed) > 0 {
				if data, err := json.Marshal(ev); err == nil {
					if !s.writeSSE(rc, w, "delta", ev.Epoch, data) {
						return
					}
					s.metrics.StreamEvents.Add(1)
				}
			}
			since = ev.Epoch
			s.writeSSE(rc, w, "drain", since, []byte("{}"))
			return
		}
	}
}

// writeSSE writes one framed event under the write deadline; false
// means the client is gone or too slow and has been dropped (counted).
func (s *Server) writeSSE(rc *http.ResponseController, w http.ResponseWriter,
	event string, id int64, data []byte) bool {
	// SetWriteDeadline is best-effort (httptest recorders lack it);
	// real connections get the slow-client bound.
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data); err != nil {
		s.metrics.StreamDropped.Add(1)
		return false
	}
	rc.Flush()
	return true
}

// longPoll answers one ?poll=1 request: immediately when deltas exist
// past the cursor, else after the first broadcast or the wait budget,
// whichever comes first. The JSON body is a StreamEvent; the client
// loops with ?since=<epoch>.
func (s *Server) longPoll(w http.ResponseWriter, r *http.Request, sub *subscriber,
	rollup Rollup, filter cellFilter, since int64, waitStr string) {
	wait := longPollDefaultWait
	if waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > longPollMaxWait {
		wait = longPollMaxWait
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		ev := s.deltasSince(since, rollup)
		ev.filter(filter)
		if ev.Reset || len(ev.Cells) > 0 || len(ev.Removed) > 0 {
			s.writePollEvent(w, ev)
			return
		}
		since = ev.Epoch
		select {
		case <-sub.wake:
		case <-deadline.C:
			s.writePollEvent(w, ev) // empty: just the fresh cursor
			return
		case <-r.Context().Done():
			return
		case <-s.bcast.drain:
			s.writePollEvent(w, ev)
			return
		}
	}
}

func (s *Server) writePollEvent(w http.ResponseWriter, ev StreamEvent) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ev)
	s.metrics.StreamEvents.Add(1)
}
