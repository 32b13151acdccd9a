package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/puncture"
)

// hot-cells: closed loop over nproc long-lived raw-TCP connections.
// Binary frames of 100 summaries × 20 RTTs drawn from the 5-model
// census (with layer attribution) in one window, so the store holds a
// handful of hot cells and every batch splits into long same-cell runs.
const (
	hotPerBatch   = 100
	hotRTTs       = 20
	hotFrames     = 64
	hotCensusEach = 3 // census sessions per phone model
	// pinnedEventMS is the event time stamped on every hot-cells and
	// campaign summary (both run windowless, so it only has to be valid).
	pinnedEventMS = 1_700_000_000_000
	// busyBudget bounds how long a batch refused with backpressure is
	// retried, every busyDelay, before it counts as failed: long enough
	// that only a wedged server fails one.
	busyBudget = 5 * time.Second
	busyDelay  = time.Millisecond
)

type hotCells struct {
	o      opts
	srv    *ingest.Server
	conns  []net.Conn
	frames [][]byte
	cen    *census
}

func setupHotCells(o opts) (fixture, error) {
	frames, perModel := hotFrames, hotCensusEach
	if o.smoke {
		frames, perModel = 8, 1
	}
	cen, err := runCensus(o.seed, perModel, 100)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	h := &hotCells{o: o, cen: cen}
	for f := 0; f < frames; f++ {
		batch := make([]ingest.Summary, hotPerBatch)
		for i := range batch {
			batch[i] = resample(cen.summaries[rng.Intn(len(cen.summaries))], rng, hotRTTs)
			batch[i].Scenario = "hot-cells"
			batch[i].TimeMS = pinnedEventMS
		}
		frame, err := ingest.AppendBinaryBatch(nil, batch)
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		h.frames = append(h.frames, frame)
	}
	// Window -1: one eternal window, so retention and compaction never
	// run; the JSON wire and the stream are not used.
	h.srv, err = ingest.Start(ingest.Config{TCPAddr: "127.0.0.1:0", Window: -1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < nproc(); i++ {
		c, err := net.Dial("tcp", h.srv.TCPAddr())
		if err != nil {
			h.close()
			_ = shutdown(h.srv) // the dial error is the one to report
			return nil, fmt.Errorf("dial: %w", err)
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

// resample copies a census summary keeping its identity and attribution,
// with n RTTs drawn as one contiguous stretch of its probe sequence.
func resample(src ingest.Summary, rng *rand.Rand, n int) ingest.Summary {
	s := src
	if n > len(src.RTTs) {
		n = len(src.RTTs)
	}
	off := rng.Intn(len(src.RTTs) - n + 1)
	s.RTTs = append([]int64(nil), src.RTTs[off:off+n]...)
	s.Sent, s.Lost, s.BackgroundSent = n, 0, 0
	return s
}

func (h *hotCells) server() *ingest.Server        { return h.srv }
func (h *hotCells) readerInterval() time.Duration { return 50 * time.Millisecond }

func (h *hotCells) drive(deadline time.Time) clientStats {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all clientStats
	)
	for w, c := range h.conns {
		wg.Add(1)
		go func(w int, c net.Conn) {
			defer wg.Done()
			cs := h.sendLoop(w, c, deadline)
			mu.Lock()
			all.merge(cs)
			mu.Unlock()
		}(w, c)
	}
	wg.Wait()
	return all
}

// sendLoop writes frames back to back on one connection, each after the
// previous frame's status byte, until the deadline.
func (h *hotCells) sendLoop(w int, c net.Conn, deadline time.Time) clientStats {
	var cs clientStats
	c.SetDeadline(deadline.Add(30 * time.Second))
	var status [1]byte
	for i := w; time.Now().Before(deadline); i += len(h.conns) {
		frame := h.frames[i%len(h.frames)]
		cs.attempted += hotPerBatch
		if h.o.withhold && i == 0 {
			cs.acked += hotPerBatch // counted, never sent
			continue
		}
		start := time.Now()
		accepted := false
		for time.Since(start) < busyBudget {
			if _, err := c.Write(frame); err != nil {
				cs.errs = append(cs.errs, fmt.Sprintf("tcp write: %v", err))
				return cs
			}
			if _, err := io.ReadFull(c, status[:]); err != nil {
				cs.errs = append(cs.errs, fmt.Sprintf("tcp status: %v", err))
				return cs
			}
			if status[0] == 0 {
				accepted = true
				break
			}
			if status[0] != 1 {
				cs.errs = append(cs.errs, fmt.Sprintf("tcp status %d", status[0]))
				return cs
			}
			time.Sleep(busyDelay)
		}
		if accepted {
			now := time.Now()
			cs.acked += hotPerBatch
			cs.acks = append(cs.acks, timed{now, ms(now.Sub(start))})
		} else {
			cs.refused += hotPerBatch
		}
	}
	return cs
}

func (h *hotCells) check(out *outcome) []string { return conservation(h.srv.Store(), out) }

func (h *hotCells) replayInput(out *outcome) replayInput {
	return replayInput{
		frames:      h.frames,
		cycle:       true,
		wire:        ingest.WireBinary,
		newStore:    func() *ingest.Store { return ingest.NewStore(0, 0) },
		knowledge:   func() *puncture.Store { return puncture.NewStore(0) },
		rate:        out.metrics["summaries_per_s"].Value,
		readerEvery: h.readerInterval(),
		producer:    h.cen.onePerModel(),
	}
}

func (h *hotCells) close() {
	for _, c := range h.conns {
		c.Close()
	}
	h.conns = nil
}
