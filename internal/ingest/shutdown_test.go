package ingest

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestShutdownJoinsJanitor: once Shutdown returns, no compaction pass
// may still be demoting cells, so a query straight after it counts
// every folded session exactly once — never a cell caught both in its
// shard and in its rollup.
func TestShutdownJoinsJanitor(t *testing.T) {
	const window = 5 * time.Millisecond
	for iter := 0; iter < 50; iter++ {
		s, err := Start(Config{Addr: "127.0.0.1:0", Window: window, Retention: window,
			CompactWindow: 4 * window, StreamInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Enough fresh cells in one window that the pass compacting them
		// runs for milliseconds, and a staggered shutdown time, so some
		// iterations shut down while that pass is running.
		lg := &LoadGen{URL: s.URL(), BatchSize: 500}
		now := time.Now().UnixMilli()
		for b := 0; b < 4; b++ {
			batch := make([]Summary, 500)
			for i := range batch {
				batch[i] = Summary{Device: fmt.Sprintf("i%d-b%d-%d", iter, b, i), Sent: 1,
					TimeMS: now, RTTs: []int64{int64(30 * time.Millisecond)}}
			}
			if err := lg.Send(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Duration(iter%15) * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := s.Store().Query(RollupGroup)
		if err != nil {
			t.Fatal(err)
		}
		var sessions int64
		for _, c := range cells {
			sessions += c.Sessions
		}
		if folded := s.MetricsSnapshot()["folded_summaries"]; sessions != folded {
			t.Fatalf("iteration %d: %d sessions queryable after Shutdown; %d folded", iter, sessions, folded)
		}
	}
}

// TestShutdownClosesUnusedConn: a client that connected but never sent
// a request must not hold up Shutdown. http.Server.Shutdown alone waits
// about five seconds for such a connection.
func TestShutdownClosesUnusedConn(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Window: -1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Wait until the server has accepted the connection, so it is in
	// StateNew when Shutdown starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.fresh.mu.Lock()
		n := len(s.fresh.conns)
		s.fresh.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never accepted the connection")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Shutdown took %v with an unused connection open", d)
	}
}
