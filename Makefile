# Local invocations mirror .github/workflows/ci.yml so "make ci" is
# exactly what the workflow runs.

GO ?= go
BENCH_FILE ?= BENCH_10.json

.PHONY: build test race allocs bench bench-json bench-gate fuzz-smoke e2e-restart e2e-churn e2e-cluster perfbench-smoke lint fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation tests, run without the race detector: it changes
# allocation counts, so TestSessionAllocs and
# TestStoreFoldChurnAllocatesNothing skip themselves under -race.
allocs:
	$(GO) test -count=1 -run 'TestSessionAllocs|TestPacketPostAllocatesNothing|TestInlineHeaderSlots|TestStoreFoldChurnAllocatesNothing' ./internal/fleet ./internal/simtime ./internal/packet ./internal/ingest

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Benchmarks cmd/benchdiff gates on. The 1x sweep skips them and they
# run only in a second pass at -benchtime=2s, so the gated numbers are
# averaged over enough iterations to survive a 30% threshold (a
# single-iteration loopback figure swings ±40% run to run, and the
# loopback summaries/sec metric folds the fixed server start/drain
# cost into elapsed time, so short passes systematically under-read
# it), and no 1-iteration row shares a name with a steady row in
# $(BENCH_FILE). Every package holding a watched benchmark is in the
# steady pass's package list. The producer's gated rows
# (BenchmarkSession, BenchmarkSessionRun and the event-queue
# BenchmarkSimPost) ride the same steady pass.
BENCH_WATCHED := IngestLoopback|Decode|Encode|CorrectionLookup|SketchFold|SketchMerge|StoreFold|StreamFanout|Compaction|GossipRound|ReplicaMerge|Session|SimPost

# Machine-readable benchmark record for the perf trajectory (ns/op,
# allocs/op, summaries/sec across all three wires, decode costs, and
# the knowledge-store lookup/merge benchmarks), archived as
# $(BENCH_FILE) by the CI bench job. -benchmem so allocs/op lands in
# the record for the allocation-contract gate in cmd/benchdiff.
# Separate steps so a go test failure stops make instead of hiding in
# a pipe; CI runs this exact target, keeping local and CI artifacts
# identical.
bench-json:
	$(GO) test -bench=. -skip='$(BENCH_WATCHED)' -benchmem -benchtime=1x -run='^$$' ./... > bench-out.txt
	$(GO) test -bench='$(BENCH_WATCHED)' -benchmem -benchtime=2s -run='^$$' \
		./internal/ingest ./internal/puncture ./internal/agg ./internal/cluster \
		./internal/fleet ./internal/simtime . >> bench-out.txt
	$(GO) run ./cmd/bench2json < bench-out.txt > $(BENCH_FILE)
	@echo "wrote $(BENCH_FILE)"

# Bench-regression gate: diff the fresh $(BENCH_FILE) against
# bench-baseline.json (CI copies the committed record there *before*
# bench-json overwrites it; locally, `cp $(BENCH_FILE)
# bench-baseline.json` before a change does the same). benchdiff exits
# 0 when the baseline file is absent and honors BENCHDIFF_SKIP=1, so
# this target is safe to run unconditionally.
bench-gate:
	$(GO) run ./cmd/benchdiff -baseline bench-baseline.json -current $(BENCH_FILE)

# 30s native-fuzz smoke on eleven targets — the untrusted-input
# decoders, the hand-written JSON codecs, the span-stored Hist, its
# two decoders, the track agreement law and the wire cursor's varint
# reads —
# starting from the committed corpora under testdata/fuzz. Catches
# decoder panics and bounds-check slips on every PR without a long
# fuzzing campaign. -fuzzminimizetime=1s caps the shrinking of each
# newly interesting input (1 minute by default), so the 30 s budget
# goes on fuzzing rather than minimizing. FuzzSketchBatchFold additionally drives every
# accepted sketch through the agg batch entry points (AddMulti on
# Sketch/Hist/Moments, Merge) so the buffered fold path keeps
# rejecting hostile blobs at the same caps and stays byte-identical to
# the serial path. FuzzHistOps applies random operation sequences to
# the span-stored Hist and a dense reference model and requires
# identical bins, N, quantiles and JSON. FuzzHistDecode feeds any bytes
# to Hist.ReadBinary and Hist.UnmarshalJSON: an accepted form re-encodes
# to the same bytes (binary) or an equal Hist (JSON).
# FuzzDecodeBatchMatchesEncodingJSON holds the hand-written JSON-lines
# scanner to encoding/json: same verdict, deeply equal summaries.
# FuzzAppendBatchMatchesEncodingJSON holds the hand-written JSON-lines
# encoder to encoding/json: same bytes, same errors.
# FuzzReadSnapshot feeds the knowledge-file reader (disk and POST
# /v1/profiles): anything it accepts merges into a fresh store, and
# that store's snapshot bytes read, merge and write back unchanged.
# FuzzTrackAgree folds any observation set as one agg.Track and as a
# random split merged in random order, and requires Agree to report
# no difference either way. FuzzCursorVarint reads any bytes through
# wirebuf.Cursor's Uvarint, Varint and Field: every accepted read
# re-encodes to exactly the bytes it consumed (varints are minimal),
# and the stream reader wirebuf.ReadUvarint accepts the same uvarints.
fuzz-smoke:
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz '^FuzzDecodeBatchMatchesEncodingJSON$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz '^FuzzAppendBatchMatchesEncodingJSON$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz '^FuzzDecodeBinaryBatch$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz '^FuzzDecodeGossipDelta$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/agg/ -run '^$$' -fuzz '^FuzzSketchBatchFold$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/agg/ -run '^$$' -fuzz '^FuzzHistOps$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/agg/ -run '^$$' -fuzz '^FuzzHistDecode$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/puncture/ -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/agg/ -run '^$$' -fuzz '^FuzzTrackAgree$$' -fuzztime=30s -fuzzminimizetime=1s
	$(GO) test ./internal/wirebuf/ -run '^$$' -fuzz '^FuzzCursorVarint$$' -fuzztime=30s -fuzzminimizetime=1s

# The ingestd persistence e2e in isolation: kill → reboot → learned
# overhead table identical, the fleet→ingest delta merge, and a stream
# client resuming past the restarted store's epoch. CI runs
# this as its own step so a persistence regression is named in the job
# list, not buried in the full test log.
e2e-restart:
	$(GO) test -count=1 -run 'TestIngestdRestartRoundTrip|TestProfilesDeltaMerge|TestStreamResumeAfterRestart' -v ./internal/ingest

# Steady-state churn e2e: rotating cell keys through a capped store
# must hold resident cells at the cap with compaction preserving every
# session count (the bounded-memory/lossless-retention acceptance
# check), plus the stream-replica equivalence e2e and the replay of
# stream and gossip deltas racing compaction (every removal retracted).
# Runs both the Go test and the CLI churn mode, so the operator-facing
# command is exercised too.
e2e-churn:
	$(GO) test -count=1 -run 'TestChurnSteadyState|TestStreamDeltasReproduceStats|TestDeltaReplayRetractsRacingRemovals' -v ./internal/ingest
	$(GO) run ./cmd/acutemon-ingestd -churn 12 -churn-keys 64 -window 500ms -retention 2s

# Cluster chaos e2e under -race: three gossiping nodes split a
# campaign, one is killed mid-stream, and the survivors must converge
# to the exact offline fleet report from the dead peer's replicas (the
# PR 9 acceptance check). Then a late summary re-mints a fine cell
# under its rollup's Key, and gossip must still hand the peer every
# session.
e2e-cluster:
	$(GO) test -count=1 -race -run 'TestClusterChaosConvergence|TestClusterGossipMergesRemintedTwin' -v ./internal/cluster

# The repository benchmark's harness (perfbench/, its own module that
# builds against this checkout's packages): its tests, then seconds-long
# churn-json and hot-cells smoke runs whose contract lines must report
# correct outputs. hot-cells is the only workload whose frames reach
# Store.FoldRun in long same-cell runs. Catches an ingest/agg change
# that breaks the benchmark before the benchmark is next run.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	mkdir -p .bench_build
	bash perfbench/run.sh --workload churn-json --smoke | tee .bench_build/smoke.txt
	tail -n 1 .bench_build/smoke.txt | grep -q '"correct":true'
	bash perfbench/run.sh --workload hot-cells --smoke | tee .bench_build/smoke-hot-cells.txt
	tail -n 1 .bench_build/smoke-hot-cells.txt | grep -q '"correct":true'

# lint = formatting + go vet + the project-invariant analyzer suite.
# acutemon-vet is the hard gate on the repo's own safety rules (sim
# determinism, decode bounds, lock discipline, atomic consistency,
# context-first); see README "Static analysis" for codes and waivers.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) run ./cmd/acutemon-vet ./...

fmt:
	gofmt -w .

# Every step the workflow runs, in its job order: test (build, lint,
# race, the three e2e suites, the benchmark harness smoke), fuzz-smoke,
# then bench (record + regression gate).
ci: build lint race allocs e2e-restart e2e-churn e2e-cluster perfbench-smoke fuzz-smoke bench-json bench-gate
