package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// The traced replay re-runs a workload's generated inputs in process,
// on one goroutine, through the public entry points in pipeline order:
// decode → KeyFor → correction → Fold, with the janitor's
// Compact/EnforceCap and the reader's DeltasSince/StatsQuery at their
// cadences in virtual time, and a sample of the producer's sessions
// through testbed.New → session.Run → Analyze → SummaryFromSession.
// Every call gets a span kept in memory and written out at the end.

// replayInput is what a workload hands the replay.
type replayInput struct {
	// frames are the encoded batches in send order, on the workload's
	// own wire (ingest.WireBinary or ingest.WireJSON).
	frames [][]byte
	wire   string
	// cycle replays the frames round and round, as a closed loop that
	// re-sends them does, up to cycleLimit summaries; otherwise they are
	// replayed once, up to the replay limit.
	cycle bool
	// newStore and knowledge build fresh state configured like the
	// server's.
	newStore  func() *ingest.Store
	knowledge func() *puncture.Store
	// rate is summaries per second of virtual time: the offered rate on
	// an open loop, the measured throughput on a closed one.
	rate float64
	// janitor is the server's compaction cadence (0: no janitor runs).
	janitor, retention time.Duration
	readerEvery        time.Duration
	// streamEvery is the stream broadcast cadence (0: no subscriber).
	streamEvery time.Duration
	// stampArrival stamps unstamped summaries with virtual arrival time,
	// as the server's enqueue does.
	stampArrival bool
	producer     []producerSpec
	// producerInPath says the producer runs inside the timed phase, so
	// its stages count in the stage sum.
	producerInPath bool
}

// span is one traced call. Parent is -1 for a root; Batch is the batch
// or session the call belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Batch  int32  `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stageTotals accumulates one span name: busy time, calls, and the
// work items (summaries, RTTs, cells) the calls processed.
type stageTotals struct {
	ns, calls, items int64
}

type tracer struct {
	t0     time.Time
	spans  []span
	stages map[string]*stageTotals
}

func newTracer() *tracer { return &tracer{t0: time.Now(), stages: map[string]*stageTotals{}} }

func (t *tracer) begin(name string, parent, batch int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Batch: batch, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32, items int) {
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.t0))
	st := t.stages[sp.Name]
	if st == nil {
		st = &stageTotals{}
		t.stages[sp.Name] = st
	}
	st.ns += sp.End - sp.Start
	st.calls++
	st.items += int64(items)
}

// perItem is a stage's busy ns per processed item (per call when it
// processed none, e.g. a compaction pass that found nothing).
func (t *tracer) perItem(name string) float64 {
	st := t.stages[name]
	if st == nil {
		return 0
	}
	return float64(st.ns) / math.Max(1, float64(st.items))
}

func (t *tracer) perCall(name string) float64 {
	st := t.stages[name]
	if st == nil {
		return 0
	}
	return float64(st.ns) / math.Max(1, float64(st.calls))
}

func (t *tracer) total(name string) float64 {
	if st := t.stages[name]; st != nil {
		return float64(st.ns)
	}
	return 0
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// replayLimit bounds the summaries replayed: a one-pass replay stops
// after about 8 s of churn-json's inputs; a cycling one runs long enough
// (about a second here) that host noise averages out.
func replayLimit(o opts, cycle bool) int {
	switch {
	case o.smoke:
		return 1000
	case cycle:
		return 200000
	}
	return 40000
}

// allocSample is how many frames each decoder's allocation count is
// averaged over.
const allocSample = 32

// mintProbeCells is how many fresh cells the mint probe creates.
const mintProbeCells = 256

// replay runs the traced replay and returns the per-layer metrics
// (merged with the live ones the end-to-end run already measured).
func replay(o opts, out *outcome) (map[string]metric, error) {
	in := out.fx.replayInput(out)
	if len(in.frames) == 0 {
		return nil, fmt.Errorf("replay: workload produced no inputs")
	}
	tr := newTracer()
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }

	prod, err := replayProducer(tr, in.producer)
	if err != nil {
		return nil, err
	}
	cons, err := replayConsumer(tr, in, replayLimit(o, in.cycle))
	if err != nil {
		return nil, err
	}

	set("binwire.decode_ns_per_summary", tr.perItem("binwire.decode"))
	set("binwire.decode_allocs_per_batch", cons.binAllocsPerBatch)
	set("binwire.encode_ns_per_summary", tr.perItem("binwire.encode"))
	set("wire.decode_ns_per_summary", tr.perItem("wire.decode"))
	set("wire.decode_allocs_per_summary", cons.jsonAllocsPerSummary)
	set("puncture.correct_ns_per_summary", tr.perItem("puncture.correct"))
	set("puncture.correct_run_ns_per_summary", tr.perItem("puncture.correct_run"))
	set("puncture.resolve_ns", tr.perItem("puncture.resolve"))
	set("store.keyfor_ns_per_summary", tr.perItem("store.keyfor"))
	set("store.fold_ns_per_summary", tr.perItem("store.fold"))
	set("store.mint_ns_per_cell", tr.perItem("store.mint"))
	set("store.bytes_per_cell", cons.bytesPerCell)
	set("agg.sketch_ns_per_rtt", tr.perItem("agg.sketch"))
	set("agg.hist_ns_per_rtt", tr.perItem("agg.hist"))
	set("agg.moments_ns_per_rtt", tr.perItem("agg.moments"))
	set("agg.sketch_merge_ns", tr.perCall("agg.sketch_merge"))
	set("retention.compact_ns_per_cell", tr.perItem("retention.compact"))
	set("retention.enforce_cap_ns_per_pass", tr.perCall("retention.enforce_cap"))
	set("stream.deltas_ns_per_cell", tr.perItem("stream.deltas"))
	set("query.cell_ns_per_cell", tr.perItem("query.cell"))
	set("query.group_ns_per_cell", tr.perItem("query.group"))
	set("testbed.build_ms", tr.perCall("testbed.build")/1e6)
	set("session.run_ms", tr.perCall("session.run")/1e6)
	set("session.analyze_ms", tr.perCall("session.analyze")/1e6)
	set("simtime.events_per_session", prod.eventsPerSession)
	set("simtime.ns_per_event", (tr.total("testbed.build")+tr.total("session.run"))/math.Max(1, prod.eventsPerSession*float64(len(in.producer))))
	set("session.allocs_per_session", prod.allocsPerSession)
	set("session.bytes_per_session", prod.bytesPerSession)
	set("loadgen.summary_ns", tr.perCall("loadgen.summary"))

	// Reconcile: the stages on the workload's blocking path, per
	// summary, against the end-to-end CPU cost per summary.
	rows := blockingStages(in)
	var sum float64
	for _, r := range rows {
		sum += r.perUnit(tr, cons.summaries, len(in.producer))
	}
	// The share the stage sum leaves uncovered cannot be negative: a sum
	// above the end-to-end figure reads as 0, not as an improvement (the
	// table prints the signed value).
	cpuNS := out.metrics["cpu_us_per_summary"].Value * 1e3
	set("trace.unattributed_frac", math.Max(0, 1-sum/cpuNS))
	printTrace(tr, rows, cons.summaries, len(in.producer), sum, cpuNS)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return m, nil
}

// stageRow is one stage of the reconciliation table.
type stageRow struct {
	name string
	// perSession stages are priced per simulated session (one summary
	// each on campaign).
	perSession bool
}

// perUnit is the stage's busy ns per summary (per session for producer
// stages).
func (r stageRow) perUnit(tr *tracer, summaries, sessions int) float64 {
	n := summaries
	if r.perSession {
		n = sessions
	}
	return tr.total(r.name) / math.Max(1, float64(n))
}

// blockingStages lists the replayed stages that run inside the
// workload's timed phase, in pipeline order, each counted once. The
// server's fold workers correct every run with CorrectionRun, so that is
// the correction priced here. Fold builds the key itself, so KeyFor is
// left out of the sum. The per-layer metrics outside this list (KeyFor,
// the other wire's decoder, per-summary Correction, Resolve, the shadow
// aggregates, the mint probe, by-cell queries) price alternatives or
// sub-steps and do not add to it.
func blockingStages(in replayInput) []stageRow {
	var rows []stageRow
	if in.producerInPath {
		rows = append(rows,
			stageRow{"testbed.build", true}, stageRow{"session.run", true},
			stageRow{"session.analyze", true}, stageRow{"loadgen.summary", true},
			stageRow{"binwire.encode", false})
	}
	if in.wire == ingest.WireJSON {
		rows = append(rows, stageRow{"wire.decode", false})
	} else {
		rows = append(rows, stageRow{"binwire.decode", false})
	}
	rows = append(rows, stageRow{"puncture.correct_run", false}, stageRow{"store.fold", false})
	if in.janitor > 0 {
		rows = append(rows, stageRow{"retention.compact", false}, stageRow{"retention.enforce_cap", false})
	}
	if in.streamEvery > 0 {
		rows = append(rows, stageRow{"stream.deltas", false})
	}
	return append(rows, stageRow{"query.group", false})
}

func printTrace(tr *tracer, rows []stageRow, summaries, sessions int, sum, cpuNS float64) {
	fmt.Printf("trace: %d summaries and %d sessions replayed on one goroutine\n", summaries, sessions)
	fmt.Printf("  %-24s %8s %14s %12s\n", "stage", "calls", "ns/summary", "share")
	for _, r := range rows {
		st := tr.stages[r.name]
		if st == nil {
			continue
		}
		per := r.perUnit(tr, summaries, sessions)
		fmt.Printf("  %-24s %8d %14.1f %11.1f%%\n", r.name, st.calls, per, 100*per/cpuNS)
	}
	fmt.Printf("  %-24s %8s %14.1f %11.1f%%\n", "stage sum", "", sum, 100*sum/cpuNS)
	fmt.Printf("  %-24s %8s %14.1f %11.1f%%\n", "cpu_us_per_summary (e2e)", "", cpuNS, 100.0)
	fmt.Printf("  trace.unattributed_frac %.4f\n", 1-sum/cpuNS)
}

type producerTotals struct {
	eventsPerSession, allocsPerSession, bytesPerSession float64
}

// replayProducer re-runs the sampled sessions through the producer's
// public entry points.
func replayProducer(tr *tracer, specs []producerSpec) (producerTotals, error) {
	var tot producerTotals
	if len(specs) == 0 {
		return tot, fmt.Errorf("replay: no producer sessions")
	}
	var events, allocs, bytes uint64
	var m0, m1 runtime.MemStats
	for i, p := range specs {
		prof, ok := android.ProfileByName(p.phone)
		if !ok {
			return tot, fmt.Errorf("replay: unknown phone %q", p.phone)
		}
		runtime.ReadMemStats(&m0)
		root := tr.begin("session", -1, int32(i))

		id := tr.begin("testbed.build", root, int32(i))
		cfg := testbed.DefaultConfig()
		cfg.Seed = p.seed
		cfg.Phone = prof
		cfg.EmulatedRTT = session.DefaultEmulatedRTT
		tb := testbed.New(cfg)
		tb.Sim.RunUntil(session.DefaultSettle) // the idle doze a fleet session starts with
		tr.end(id, 1)

		var sample stats.Sample
		id = tr.begin("session.run", root, int32(i))
		res, err := session.Run(context.Background(), session.Spec{
			Backend: "sim", Method: "acutemon", K: p.probes, Phone: p.phone, Seed: p.seed,
			Testbed: tb,
			Sink: session.SinkFunc(func(o session.Observation) {
				if o.OK {
					sample = append(sample, o.RTT)
				}
			}),
		})
		tr.end(id, 1)
		if err != nil {
			return tot, fmt.Errorf("replay: session %d: %w", i, err)
		}

		id = tr.begin("session.analyze", root, int32(i))
		res.Analyze()
		tr.end(id, 1)
		events += tb.Sim.Executed()

		r := sessionResult(p, res, sample)
		id = tr.begin("loadgen.summary", root, int32(i))
		s := ingest.SummaryFromSession(&r, sample, "replay", 0)
		tr.end(id, 1)
		tr.end(root, 1)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		if err := s.Validate(); err != nil {
			return tot, fmt.Errorf("replay: session %d summary: %w", i, err)
		}
	}
	n := float64(len(specs))
	tot.eventsPerSession = float64(events) / n
	tot.allocsPerSession = float64(allocs) / n
	tot.bytesPerSession = float64(bytes) / n
	return tot, nil
}

// sessionResult folds a session.Result into the campaign's summary
// shape the way a fleet worker does.
func sessionResult(p producerSpec, res *session.Result, sample stats.Sample) fleet.SessionResult {
	rtt := session.DefaultEmulatedRTT
	r := fleet.SessionResult{
		Session:        fleet.Session{Phone: p.phone, Label: p.phone, Probes: p.probes, EmulatedRTT: rtt, Seed: p.seed},
		Sent:           res.Sent,
		Lost:           res.Lost,
		BackgroundSent: res.BackgroundSent,
		PSMActive:      res.PSMActive,
	}
	if len(sample) > 0 {
		r.Summary = sample.Summarize()
		r.Inflation = float64(sample.Mean()) / float64(rtt)
	}
	if l := res.Layers; l != nil && len(l.Dn) > 0 && len(l.DuK) > 0 && len(l.DkN) > 0 {
		r.LayersOK = true
		r.UserOverhead = l.DuK.Mean()
		r.SDIOOverhead = l.DkN.Mean()
		r.PSMInflation = l.Dn.Mean() - rtt
	}
	return r
}

type consumerTotals struct {
	summaries            int
	binAllocsPerBatch    float64
	jsonAllocsPerSummary float64
	bytesPerCell         float64
}

// shadowAgg is a standalone copy of one track's aggregates, fed the same
// RTTs the store folds, so each aggregate's insert cost is priced on its
// own.
type shadowAgg struct {
	sk *agg.Sketch
	h  *agg.Hist
	m  agg.Moments
}

// replayConsumer replays the frames through the ingest entry points.
func replayConsumer(tr *tracer, in replayInput, limit int) (consumerTotals, error) {
	var tot consumerTotals
	st := in.newStore()
	know := in.knowledge()
	punc := ingest.NewPuncturerStore(know)
	puncRun := ingest.NewPuncturerStore(in.knowledge())
	shadows := map[string]*shadowAgg{}
	merged := agg.NewSketch(0)
	cursor := st.Epoch()
	baseMS := time.Now().UnixMilli()

	var (
		binFrames, jsonFrames [][]byte
		keys                  []ingest.Key
		corrs                 []time.Duration
		srcs                  []ingest.CorrectionSource
		atts                  []puncture.Attribution
		encBuf                []byte
		jsonBuf               bytes.Buffer
	)
	vt := 0.0 // virtual seconds
	nextJanitor, nextReader, nextStream := in.janitor.Seconds(), in.readerEvery.Seconds(), in.streamEvery.Seconds()
	cells := func() int { return int(st.Cells() + st.RollupCells()) }

	for b := 0; tot.summaries < limit && (in.cycle || b < len(in.frames)); b++ {
		frame := in.frames[b%len(in.frames)]
		bid := int32(b)
		root := tr.begin("batch", -1, bid)

		var batch []ingest.Summary
		var err error
		if in.wire == ingest.WireJSON {
			id := tr.begin("wire.decode", root, bid)
			batch, err = ingest.DecodeBatch(bytes.NewReader(frame), 0)
			tr.end(id, len(batch))
		} else {
			id := tr.begin("binwire.decode", root, bid)
			batch, err = ingest.DecodeBinaryBatch(bytes.NewReader(frame), 0, 0)
			tr.end(id, len(batch))
		}
		if err != nil {
			return tot, fmt.Errorf("replay: batch %d: %w", b, err)
		}
		n := len(batch)

		id := tr.begin("binwire.encode", root, bid)
		encBuf, err = ingest.AppendBinaryBatch(encBuf[:0], batch)
		tr.end(id, n)
		if err != nil {
			return tot, fmt.Errorf("replay: batch %d: %w", b, err)
		}
		// Price the other wire's decoder on the same batch.
		if in.wire == ingest.WireJSON {
			id = tr.begin("binwire.decode", root, bid)
			_, err = ingest.DecodeBinaryBatch(bytes.NewReader(encBuf), 0, 0)
			tr.end(id, n)
		} else {
			jsonBuf.Reset()
			if err = ingest.EncodeBatch(&jsonBuf, batch); err == nil {
				id = tr.begin("wire.decode", root, bid)
				_, err = ingest.DecodeBatch(bytes.NewReader(jsonBuf.Bytes()), 0)
				tr.end(id, n)
			}
		}
		if err != nil {
			return tot, fmt.Errorf("replay: batch %d: %w", b, err)
		}
		if len(binFrames) < allocSample {
			binFrames = append(binFrames, append([]byte(nil), encBuf...))
			jsonBuf.Reset()
			if err := ingest.EncodeBatch(&jsonBuf, batch); err != nil {
				return tot, fmt.Errorf("replay: batch %d: %w", b, err)
			}
			jsonFrames = append(jsonFrames, append([]byte(nil), jsonBuf.Bytes()...))
		}

		if in.stampArrival {
			now := baseMS + int64(vt*1000)
			for j := range batch {
				if batch[j].TimeMS == 0 {
					batch[j].TimeMS = now
				}
			}
		}

		keys = grow(keys, n)
		id = tr.begin("store.keyfor", root, bid)
		for j := range batch {
			keys[j] = st.KeyFor(&batch[j])
		}
		tr.end(id, n)

		id = tr.begin("puncture.resolve", root, bid)
		for j := range batch {
			know.Resolve(batch[j].Device, batch[j].Chipset)
		}
		tr.end(id, n)

		corrs, srcs = grow(corrs, n), grow(srcs, n)
		id = tr.begin("puncture.correct", root, bid)
		for j := range batch {
			corrs[j], srcs[j] = punc.Correction(&batch[j])
		}
		tr.end(id, n)

		// The batched path: the same summaries grouped into same-cell
		// runs (the grouping is the pipeline's work, not priced here).
		grouped, runs := groupRuns(batch, keys)
		runCorrs, runSrcs := make([]time.Duration, n), make([]ingest.CorrectionSource, n)
		id = tr.begin("puncture.correct_run", root, bid)
		off := 0
		for _, r := range runs {
			atts = puncRun.CorrectionRun(grouped[off:off+r], runCorrs[off:off+r], runSrcs[off:off+r], atts)
			off += r
		}
		tr.end(id, n)

		id = tr.begin("store.fold", root, bid)
		for j := range batch {
			st.Fold(&batch[j], corrs[j], srcs[j])
		}
		tr.end(id, n)

		rtts, rawF, rawD := rttRuns(batch)
		sh := make([]*shadowAgg, n)
		for j := range batch {
			g := keys[j].Group
			if shadows[g] == nil {
				shadows[g] = &shadowAgg{sk: agg.NewSketch(0), h: agg.NewDurationHist()}
			}
			sh[j] = shadows[g]
		}
		id = tr.begin("agg.sketch", root, bid)
		for j := range batch {
			sh[j].sk.AddMulti(rawF[j])
		}
		tr.end(id, rtts)
		id = tr.begin("agg.hist", root, bid)
		for j := range batch {
			sh[j].h.AddMulti(rawD[j])
		}
		tr.end(id, rtts)
		id = tr.begin("agg.moments", root, bid)
		for j := range batch {
			sh[j].m.AddMulti(rawF[j])
		}
		tr.end(id, rtts)
		bs := agg.NewSketch(0)
		for j := range batch {
			bs.AddMulti(rawF[j])
		}
		id = tr.begin("agg.sketch_merge", root, bid)
		merged.Merge(bs)
		tr.end(id, 1)
		tr.end(root, n)

		tot.summaries += n
		vt += float64(n) / in.rate

		// Janitor and reader stages at their cadences in virtual time.
		for in.janitor > 0 && vt >= nextJanitor {
			now := baseMS + int64(nextJanitor*1000)
			id := tr.begin("retention.compact", -1, bid)
			compacted, _ := st.Compact(now - in.retention.Milliseconds())
			tr.end(id, int(compacted))
			id = tr.begin("retention.enforce_cap", -1, bid)
			st.EnforceCap(now)
			tr.end(id, 1)
			nextJanitor += in.janitor.Seconds()
		}
		for in.streamEvery > 0 && vt >= nextStream {
			c := cells()
			id := tr.begin("stream.deltas", -1, bid)
			ev, err := st.DeltasSince(cursor, ingest.RollupGroup)
			tr.end(id, c)
			if err != nil {
				return tot, fmt.Errorf("replay: deltas: %w", err)
			}
			cursor = ev.Epoch
			nextStream += in.streamEvery.Seconds()
		}
		for vt >= nextReader {
			if err := tracedQueries(tr, st, cells(), bid); err != nil {
				return tot, err
			}
			nextReader += in.readerEvery.Seconds()
		}
	}
	// Stages the workload's server never runs get one pass at the end,
	// so every per-layer metric is measured on every workload: on a
	// windowless store the retention passes find nothing to do, and a
	// subscriber-less workload's deltas price one catch-up.
	bid := int32(-1)
	if in.janitor <= 0 {
		id := tr.begin("retention.compact", -1, bid)
		compacted, _ := st.Compact(time.Now().UnixMilli())
		tr.end(id, int(compacted))
		id = tr.begin("retention.enforce_cap", -1, bid)
		st.EnforceCap(time.Now().UnixMilli())
		tr.end(id, 1)
	}
	if in.streamEvery <= 0 {
		c := cells()
		id := tr.begin("stream.deltas", -1, bid)
		_, err := st.DeltasSince(cursor, ingest.RollupGroup)
		tr.end(id, c)
		if err != nil {
			return tot, fmt.Errorf("replay: deltas: %w", err)
		}
	}
	if tr.stages["query.group"] == nil {
		if err := tracedQueries(tr, st, cells(), bid); err != nil {
			return tot, err
		}
	}

	tot.binAllocsPerBatch = allocsPer(len(binFrames), func(i int) {
		ingest.DecodeBinaryBatch(bytes.NewReader(binFrames[i]), 0, 0)
	})
	var sampled int
	tot.jsonAllocsPerSummary = allocsPer(len(jsonFrames), func(i int) {
		b, _ := ingest.DecodeBatch(bytes.NewReader(jsonFrames[i]), 0)
		sampled += len(b)
	}) * float64(len(jsonFrames)) / math.Max(1, float64(sampled))
	tot.bytesPerCell = mintProbe(tr, binFrames[0])
	return tot, nil
}

// tracedQueries prices the reader's by-group /stats query and the
// by-cell variant against the replay store.
func tracedQueries(tr *tracer, st *ingest.Store, cells int, bid int32) error {
	id := tr.begin("query.group", -1, bid)
	_, err := st.StatsQuery(ingest.RollupGroup)
	tr.end(id, cells)
	if err != nil {
		return fmt.Errorf("replay: query: %w", err)
	}
	id = tr.begin("query.cell", -1, bid)
	_, err = st.StatsQuery(ingest.RollupCell)
	tr.end(id, cells)
	if err != nil {
		return fmt.Errorf("replay: query: %w", err)
	}
	return nil
}

// mintProbe folds summaries of the workload, each renamed to a fresh
// device, into an empty store: every fold mints a cell. It returns the
// bytes allocated per minted cell and records the mint spans.
func mintProbe(tr *tracer, frame []byte) float64 {
	batch, err := ingest.DecodeBinaryBatch(bytes.NewReader(frame), 0, 0)
	if err != nil || len(batch) == 0 {
		return 0
	}
	sums := make([]ingest.Summary, mintProbeCells)
	for i := range sums {
		sums[i] = batch[i%len(batch)]
		sums[i].Device = fmt.Sprintf("mint-%06d", i)
	}
	st := ingest.NewStore(0, 0)
	st.SetMaxCells(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("store.mint", -1, -1)
	for i := range sums {
		st.Fold(&sums[i], 0, ingest.SourceNone)
	}
	tr.end(id, len(sums))
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(sums))
}

// allocsPer is the mean heap allocation count of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// groupRuns copies the batch grouped into same-cell runs in
// first-appearance order, keeping batch order within a run, and returns
// the run lengths.
func groupRuns(batch []ingest.Summary, keys []ingest.Key) ([]ingest.Summary, []int) {
	index := map[ingest.Key]int{}
	var members [][]int
	for j := range batch {
		r, ok := index[keys[j]]
		if !ok {
			r = len(members)
			index[keys[j]] = r
			members = append(members, nil)
		}
		members[r] = append(members[r], j)
	}
	out := make([]ingest.Summary, 0, len(batch))
	runs := make([]int, len(members))
	for r, js := range members {
		for _, j := range js {
			out = append(out, batch[j])
		}
		runs[r] = len(js)
	}
	return out, runs
}

// rttRuns returns the batch's RTT count and each summary's RTTs as the
// float64 and Duration runs the aggregates take.
func rttRuns(batch []ingest.Summary) (int, [][]float64, [][]time.Duration) {
	fs := make([][]float64, len(batch))
	ds := make([][]time.Duration, len(batch))
	n := 0
	for j := range batch {
		fs[j] = make([]float64, len(batch[j].RTTs))
		ds[j] = make([]time.Duration, len(batch[j].RTTs))
		for k, v := range batch[j].RTTs {
			fs[j][k] = float64(v)
			ds[j][k] = time.Duration(v)
		}
		n += len(batch[j].RTTs)
	}
	return n, fs, ds
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
