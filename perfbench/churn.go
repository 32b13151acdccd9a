package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/puncture"
)

// churn-json: open loop at a fixed rate, JSON lines over nproc
// keep-alive HTTP connections. Every summary is a new unknown device
// (stamped at arrival, 3 RTTs, no attribution), so each one mints a
// cell and resolves its correction on the family or global rung. The
// server runs a short window with compaction and a cell cap of about
// two windows of keys; a reader polls /stats?by=group and one
// /v1/stream subscriber follows the deltas.
const (
	// churnRate is the offered load in summaries/s: about half the
	// saturation rate (10.6k summaries/s) measured on a 2-core Intel Xeon
	// host; NOTES.md says how to re-measure it.
	churnRate      = 5000
	churnPerBatch  = 50
	churnRTTs      = 3
	churnGroups    = 8
	churnWindow    = 100 * time.Millisecond
	churnRetention = churnWindow
	// churnMaxCells is the cell cap: about two windows of keys.
	churnMaxCells  = int64(2 * churnRate * churnWindow / time.Second)
	churnRetryWait = 5 * time.Millisecond
)

type churnJSON struct {
	o      opts
	srv    *ingest.Server
	client *http.Client
	bodies [][]byte
	cen    *census
	sub    *subscriber
}

func setupChurn(o opts) (fixture, error) {
	perModel := 2
	if o.smoke {
		perModel = 1
	}
	cen, err := runCensus(o.seed, perModel, 100)
	if err != nil {
		return nil, err
	}
	c := &churnJSON{o: o, cen: cen}
	total := int(churnRate * timedPhase(o).Seconds())

	rng := rand.New(rand.NewSource(o.seed))
	var buf bytes.Buffer
	batch := make([]ingest.Summary, churnPerBatch)
	for idx := 0; idx < total; {
		for j := range batch {
			src := cen.summaries[rng.Intn(len(cen.summaries))]
			s := ingest.Summary{
				Device:   fmt.Sprintf("anon-%d-%08d", o.seed, idx),
				Group:    fmt.Sprintf("churn-g%d", idx%churnGroups),
				Scenario: "churn-json",
			}
			// Half carry a known chipset (family rung), half none
			// (global rung).
			if idx%2 == 0 {
				s.Chipset = src.Chipset
			}
			r := resample(src, rng, churnRTTs)
			s.RTTs, s.Sent = r.RTTs, r.Sent
			batch[j] = s
			idx++
		}
		buf.Reset()
		if err := ingest.EncodeBatch(&buf, batch); err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		c.bodies = append(c.bodies, append([]byte(nil), buf.Bytes()...))
	}

	c.srv, err = ingest.Start(ingest.Config{
		Window:    churnWindow,
		Retention: churnRetention,
		MaxCells:  churnMaxCells,
		Profiles:  cen.knowledge(),
	})
	if err != nil {
		return nil, err
	}
	c.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc(),
			MaxIdleConnsPerHost: nproc(),
			DisableCompression:  true,
		},
	}
	if err := warm(c.client, c.srv.URL(), nproc()); err != nil {
		c.close()
		_ = shutdown(c.srv) // the warm-up error is the one to report
		return nil, err
	}
	if c.sub, err = subscribe(c.srv.URL() + "/v1/stream?by=group"); err != nil {
		c.close()
		_ = shutdown(c.srv)
		return nil, err
	}
	return c, nil
}

// warm opens n keep-alive connections by issuing n concurrent requests.
func warm(client *http.Client, base string, n int) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warm-up: %w", err)
		}
	}
	return first
}

func (c *churnJSON) server() *ingest.Server        { return c.srv }
func (c *churnJSON) readerInterval() time.Duration { return 100 * time.Millisecond }

// drive sends batch i at its due time t0 + i·interval from whichever
// sender is free; latency counts from the due time, so a stall charges
// every batch queued behind it.
func (c *churnJSON) drive(deadline time.Time) clientStats {
	t0 := time.Now()
	const interval = time.Second * churnPerBatch / churnRate
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  clientStats
	)
	url := c.srv.URL() + "/v1/ingest"
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cs clientStats
			for {
				i := next.Add(1) - 1
				if int(i) >= len(c.bodies) {
					break
				}
				// A generator behind its schedule still stops at the
				// deadline.
				due := t0.Add(time.Duration(i) * interval)
				if !due.Before(deadline) || !time.Now().Before(deadline) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				cs.late = append(cs.late, ms(time.Since(due)))
				cs.attempted += churnPerBatch
				if c.o.withhold && i == 0 {
					cs.acked += churnPerBatch // counted, never sent
					continue
				}
				ok, err := c.post(url, c.bodies[i])
				switch {
				case err != nil:
					cs.errs = append(cs.errs, err.Error())
					cs.refused += churnPerBatch
				case ok:
					now := time.Now()
					cs.acked += churnPerBatch
					cs.acks = append(cs.acks, timed{now, ms(now.Sub(due))})
				default:
					cs.refused += churnPerBatch
				}
			}
			mu.Lock()
			all.merge(cs)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// post sends one batch, retrying 503 backpressure for up to busyBudget;
// false means the batch was still refused.
func (c *churnJSON) post(url string, body []byte) (bool, error) {
	start := time.Now()
	for {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.client.Do(req)
		if err != nil {
			return false, fmt.Errorf("post: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return true, nil
		case resp.StatusCode != http.StatusServiceUnavailable:
			return false, fmt.Errorf("post: %s", resp.Status)
		case time.Since(start) >= busyBudget:
			return false, nil
		}
		time.Sleep(churnRetryWait)
	}
}

// check adds the open loop's own bound to conservation: the server must
// keep up, so acknowledged-but-unfolded summaries when sending ends stay
// under one second of offered load.
func (c *churnJSON) check(out *outcome) []string {
	bad := conservation(c.srv.Store(), out)
	if out.backlog > churnRate {
		bad = append(bad, fmt.Sprintf("%d summaries acknowledged but unfolded when sending ended, over one second of offered load (%d)",
			out.backlog, churnRate))
	}
	return bad
}

func (c *churnJSON) replayInput(out *outcome) replayInput {
	return replayInput{
		frames: c.bodies,
		wire:   ingest.WireJSON,
		newStore: func() *ingest.Store {
			st := ingest.NewStore(churnWindow, 0)
			st.SetMaxCells(churnMaxCells)
			st.EnableCompaction(10 * churnWindow)
			return st
		},
		knowledge:    func() *puncture.Store { return c.cen.knowledge() },
		rate:         churnRate,
		janitor:      churnWindow,
		retention:    churnRetention,
		readerEvery:  c.readerInterval(),
		streamEvery:  100 * time.Millisecond, // the server's default broadcast interval
		stampArrival: true,
		producer:     c.cen.onePerModel(),
	}
}

func (c *churnJSON) close() {
	if c.sub != nil {
		c.sub.close()
		c.sub = nil
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// subscriber follows one /v1/stream SSE subscription on its own
// connection, reading every event so the server never blocks on it.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	tr     *http.Transport
	deltas atomic.Int64
}

func subscribe(url string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{cancel: cancel, done: make(chan struct{}), tr: &http.Transport{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: s.tr}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "event: delta") {
				s.deltas.Add(1)
			}
		}
	}()
	return s, nil
}

// close cancels the subscription and waits for its reader to exit.
func (s *subscriber) close() {
	s.cancel()
	<-s.done
	s.tr.CloseIdleConnections()
}
