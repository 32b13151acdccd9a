package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/puncture"
)

// Per-core ingest pipelines. The old design pushed whole batches onto
// one shared channel drained by N workers — at binary-wire rates the
// single channel and the store-stripe contention behind it become the
// ceiling. Here each fold worker owns one pipe (channel) and summaries
// are routed to pipes by the same full-key hash the store shards by.
// Two properties fall out:
//
//   - A given cell's folds all happen on one pipe, so two workers never
//     contend on one store stripe for the hot cell, and per-cell fold
//     order under sequential posts matches a serial fold exactly — the
//     sharding-equivalence test asserts bit-identical store state.
//   - Backpressure stays batch-atomic: a batch takes one credit (the
//     queue-depth analogue) or is rejected whole with 503/busy; its
//     sub-batches release the credit when the last one folds.
//
// On top of the routing, enqueue groups each pipe's summaries into
// contiguous same-cell *runs* (preserving the batch's per-cell order),
// so a fold worker can fold a whole run under one stripe-lock
// acquisition and one epoch bump via Store.FoldRun — and the key hash
// computed here for routing rides along in the run, so the store never
// rehashes. All of the sort's scratch (including the scatter array the
// jobs point into) comes from a pool and is returned when the batch's
// last job folds, so a steady-state enqueue allocates nothing.
//
// The non-blocking send invariant: credits caps outstanding batches at
// QueueDepth, each batch contributes at most one job per pipe, and each
// pipe's buffer is QueueDepth deep — so a credited batch's sends can
// never block, and the handler never stalls holding a credit.

// cellRun is one contiguous same-cell run within a pipeJob: the cell
// key, the full-key hash the router already computed (the store trusts
// it instead of rehashing), and the number of summaries it spans.
type cellRun struct {
	key  Key
	hash uint64
	n    int32
}

// pipeJob is one batch's share of one pipe: a contiguous slice of the
// batch's summaries that hash to this pipe, grouped into same-cell
// runs laid back to back.
type pipeJob struct {
	sums []Summary
	runs []cellRun
	ref  *batchRef
}

// batchRef tracks one accepted batch across the pipes it was split
// over; the last sub-batch folded returns the batch's credit and its
// routing scratch.
type batchRef struct {
	s       *Server
	scratch *enqueueScratch
	pending atomic.Int64
}

func (r *batchRef) done() {
	if r.pending.Add(-1) == 0 {
		sc := r.scratch
		r.scratch = nil
		<-r.s.credits
		putEnqueueScratch(sc)
	}
}

// runInfo is enqueue-internal per-run state: identity plus the
// counting-sort cursors.
type runInfo struct {
	key   Key
	hash  uint64
	pipe  int32
	count int32
	fill  int32 // scatter cursor, initialized to the run's start slot
}

// pipeSeg is enqueue-internal per-pipe state: how much of the batch
// lands on this pipe and where its segment starts in the scatter
// arrays.
type pipeSeg struct {
	sums, runs       int32 // segment sizes
	sumOff, runOff   int32 // segment starts
	nextSum, nextRun int32 // assignment cursors
}

// enqueueScratch owns every per-batch buffer of the routing sort — the
// run-discovery map, the per-summary run table, the per-pipe segments,
// and the scatter arrays the jobs alias. It lives on loan from the
// pool for the lifetime of one batch: enqueue fills it, the pipe
// workers read it, and the last job's done() clears the borrowed
// references and returns it. The batchRef itself is embedded so a
// steady-state enqueue performs zero heap allocations.
type enqueueScratch struct {
	runIndex   map[Key]int32
	runs       []runInfo
	runOf      []int32
	segs       []pipeSeg
	sorted     []Summary
	runsSorted []cellRun
	ref        batchRef
}

var enqueueScratchPool = sync.Pool{New: func() any {
	return &enqueueScratch{runIndex: make(map[Key]int32, 64)}
}}

// putEnqueueScratch drops everything that references batch data —
// summary headers carry RTT slices and sketch pointers, keys carry
// strings — before pooling, so a parked scratch pins no batch memory.
func putEnqueueScratch(sc *enqueueScratch) {
	clear(sc.sorted)
	clear(sc.runs)
	clear(sc.runsSorted)
	enqueueScratchPool.Put(sc)
}

// grown returns s resized to n, reallocating only when capacity is
// short — the pool's buffers converge on the largest batch seen.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// enqueue stamps arrival time, takes one credit, and routes the batch
// across the pipes, grouped into contiguous same-cell runs. False
// means backpressure: the caller sheds the whole batch (503 on HTTP,
// busy byte on TCP) and nothing was queued.
func (s *Server) enqueue(batch []Summary) bool {
	if len(batch) == 0 {
		return true
	}
	// Stamp arrival time here, not at fold time: under backpressure a
	// batch can sit queued across a window boundary, and the wire
	// contract promises arrival-time windows for unstamped summaries.
	// When windowing is on, event times are also clamped to a sane
	// horizon around arrival — far-future stamps would mint windows the
	// retention janitor can never compact, permanently pinning the cell
	// cap against legitimate traffic. Stamping must precede hashing:
	// the window is part of the cell key.
	now := time.Now().UnixMilli()
	for i := range batch {
		ts := batch[i].TimeMS
		if ts == 0 ||
			(s.store.windowMS > 0 && (ts > now+maxEventSkewMS || ts < now-s.ageClampMS)) {
			batch[i].TimeMS = now
		}
	}

	select {
	case s.credits <- struct{}{}:
	default:
		return false
	}

	n := len(s.pipes)
	sc := enqueueScratchPool.Get().(*enqueueScratch)

	// Pass 1: discover runs. Each distinct cell key gets one run, in
	// first-appearance order; the key is hashed exactly once, here, and
	// carried through to the store.
	runOf := grown(sc.runOf, len(batch))
	runs := sc.runs[:0]
	for i := range batch {
		k := s.store.KeyFor(&batch[i])
		id, ok := sc.runIndex[k]
		if !ok {
			id = int32(len(runs))
			sc.runIndex[k] = id
			h := keyHash(k)
			runs = append(runs, runInfo{key: k, hash: h, pipe: int32(h % uint64(n))})
		}
		runs[id].count++
		runOf[i] = id
	}
	clear(sc.runIndex)

	// Pass 2: lay out per-pipe segments, then give every run its start
	// slot — runs stay in first-appearance order within their pipe, and
	// the scatter below keeps batch order within each run, so per-cell
	// fold order still matches a serial fold exactly.
	segs := grown(sc.segs, n)
	for p := range segs {
		segs[p] = pipeSeg{}
	}
	for r := range runs {
		sg := &segs[runs[r].pipe]
		sg.sums += runs[r].count
		sg.runs++
	}
	var sumOff, runOff int32
	for p := range segs {
		segs[p].sumOff, segs[p].runOff = sumOff, runOff
		segs[p].nextSum, segs[p].nextRun = sumOff, runOff
		sumOff += segs[p].sums
		runOff += segs[p].runs
	}
	runsSorted := grown(sc.runsSorted, len(runs))
	for r := range runs {
		sg := &segs[runs[r].pipe]
		runs[r].fill = sg.nextSum
		sg.nextSum += runs[r].count
		runsSorted[sg.nextRun] = cellRun{key: runs[r].key, hash: runs[r].hash, n: runs[r].count}
		sg.nextRun++
	}

	// Pass 3: scatter the summary headers into their run slots (the RTT
	// slices and sketch pointers are shared, not copied).
	sorted := grown(sc.sorted, len(batch))
	for i := range batch {
		r := runOf[i]
		sorted[runs[r].fill] = batch[i]
		runs[r].fill++
	}

	sc.runOf, sc.runs, sc.segs = runOf, runs, segs
	sc.sorted, sc.runsSorted = sorted, runsSorted

	jobs := int64(0)
	for p := range segs {
		if segs[p].sums > 0 {
			jobs++
		}
	}
	ref := &sc.ref
	ref.s, ref.scratch = s, sc
	ref.pending.Store(jobs)
	for p := range segs {
		sg := segs[p]
		if sg.sums == 0 {
			continue
		}
		s.pipes[p] <- pipeJob{
			sums: sorted[sg.sumOff : sg.sumOff+sg.sums],
			runs: runsSorted[sg.runOff : sg.runOff+sg.runs],
			ref:  ref,
		}
	}
	return true
}

// foldLoop drains one pipe into the store; worker i is the sole folder
// for every cell hashing to pipe i. Each job arrives pre-grouped into
// same-cell runs: the worker resolves the run's corrections first
// (puncturer locks never nest inside store stripe locks), then folds
// the whole run with one FoldRun call — one stripe-lock acquisition,
// one epoch bump, zero steady-state allocations. All mutable state is
// worker-local and reused across jobs.
func (s *Server) foldLoop(i int) {
	defer s.foldWG.Done()
	var fs foldScratch
	var corrs []time.Duration
	var srcs []CorrectionSource
	var atts []puncture.Attribution
	for job := range s.pipes[i] {
		start := time.Now()
		var off int32
		for _, run := range job.runs {
			rs := job.sums[off : off+run.n]
			off += run.n
			if cap(corrs) < len(rs) {
				corrs = make([]time.Duration, len(rs))
				srcs = make([]CorrectionSource, len(rs))
			}
			corrs, srcs = corrs[:len(rs)], srcs[:len(rs)]
			atts = s.punc.CorrectionRun(rs, corrs, srcs, atts)
			var samples int64
			for j := range rs {
				samples += int64(len(rs[j].RTTs))
			}
			if folded := s.store.FoldRun(run.key, run.hash, rs, corrs, srcs, &fs); folded > 0 {
				s.metrics.FoldedSummaries.Add(int64(folded))
				s.metrics.FoldedSamples.Add(samples)
			} // else: drops counted by the store itself
		}
		job.ref.done()
		// Fold-latency summary (acutemon_fold_ns): one observation per
		// drained job, recorded after the credit is returned so the
		// clock stops exactly when the data is queryable.
		s.metrics.FoldNanos.Add(time.Since(start).Nanoseconds())
		s.metrics.FoldJobs.Add(1)
		// One poke per drained job, not per summary — the broadcaster
		// coalesces anyway, this just keeps the hot loop cheap.
		if s.bcast != nil {
			s.bcast.poke()
		}
	}
}
