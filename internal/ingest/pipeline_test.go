package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPipelineShardingEquivalence is the per-core pipeline's merge-law
// check: batches enqueued sequentially through the key-sharded pipes
// must leave the store bit-identical to a serial fold of the same
// summaries in the same order. This holds exactly — not just within
// tolerance — because every cell's summaries land on one pipe in FIFO
// order, so per-cell fold order is preserved; the summaries carry no
// attribution (LayersOK=false), keeping the correction path read-only
// and therefore order-independent across pipes.
func TestPipelineShardingEquivalence(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, FoldWorkers: 8, QueueDepth: 4})

	devices := []string{"Google Nexus 5", "Samsung Grand", "HTC One", "Sony Xperia J", "LG G2"}
	scenarios := []string{"idle", "screen-off", "bulk"}
	var batches [][]Summary
	total := 0
	for b := 0; b < 60; b++ {
		batch := make([]Summary, 20)
		for i := range batch {
			n := b*len(batch) + i
			batch[i] = Summary{
				Device:   devices[n%len(devices)],
				Scenario: scenarios[(n/7)%len(scenarios)],
				Group:    fmt.Sprintf("g%d", n%3),
				TimeMS:   1,
				Sent:     3,
				Lost:     n % 2,
				RTTs: []int64{
					int64(20+n%25) * int64(time.Millisecond),
					int64(30+n%17) * int64(time.Millisecond),
					int64(25+n%31) * int64(time.Millisecond),
				},
			}
		}
		batches = append(batches, batch)
		total += len(batch)
	}

	// Serial reference: same summaries, same order, one goroutine.
	ref := NewStore(0, 1)
	refPunc := NewPuncturerStore(nil)
	for _, batch := range batches {
		for i := range batch {
			corr, src := refPunc.Correction(&batch[i])
			ref.Fold(&batch[i], corr, src)
		}
	}

	for _, batch := range batches {
		// Sequential enqueues, as a well-behaved device would post; the
		// credit pool is deliberately small so the pipes drain mid-run.
		clone := make([]Summary, len(batch))
		copy(clone, batch)
		for !s.enqueue(clone) {
			time.Sleep(time.Millisecond)
		}
	}
	waitFolded(t, s, int64(total))

	want, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(s.Store().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pipelined store differs from serial fold:\n got %s\nwant %s", got, want)
	}
}

// TestPipelineConcurrentPosters hammers the pipes from many goroutines
// — the -race workout for the credit pool, the scatter, and the
// per-pipe fold loops. Totals must balance even under backpressure
// retries.
func TestPipelineConcurrentPosters(t *testing.T) {
	s := startTestServer(t, Config{Window: -1, FoldWorkers: 4, QueueDepth: 2})

	const posters, postsEach, perBatch = 8, 25, 10
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// One LoadGen per poster: its lazy fill and retry state are
			// single-client by design.
			lg := &LoadGen{URL: s.URL(), TimeMS: 1, Retries: 100, RetryDelay: time.Millisecond}
			for i := 0; i < postsEach; i++ {
				batch := make([]Summary, perBatch)
				for j := range batch {
					batch[j] = Summary{
						Device: fmt.Sprintf("dev-%d", (p+i+j)%6),
						TimeMS: 1, Sent: 1,
						RTTs: []int64{int64(30 * time.Millisecond)},
					}
				}
				if err := lg.Send(context.Background(), batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	total := int64(posters * postsEach * perBatch)
	waitFolded(t, s, total)
	var sessions int64
	for _, c := range s.Store().Snapshot() {
		sessions += c.Sessions
	}
	if sessions != total {
		t.Fatalf("store sessions %d, want %d", sessions, total)
	}
}
