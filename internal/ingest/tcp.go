package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Raw TCP ingest: binary frames back to back on one long-lived
// connection, for device fleets where per-POST HTTP overhead (headers,
// connection churn through middleboxes) dominates the payload. One
// status byte answers each frame:
//
//	0 — accepted (queued for fold)
//	1 — busy: backpressure or draining; re-send the frame after a beat
//	2 — bad frame; the server closes the connection (framing is lost)
//
// The wire is the exact DecodeBinaryBatch format; JSON stays
// HTTP-only. Connections idle longer than tcpIdleTimeout are closed.
const (
	tcpStatusAccepted = 0
	tcpStatusBusy     = 1
	tcpStatusBad      = 2

	tcpIdleTimeout = 5 * time.Minute
)

// connSet tracks live connections so Shutdown can force readers
// blocked on idle sockets to exit: raw-TCP connections, and HTTP
// connections that have not yet sent a request.
type connSet struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (t *connSet) add(c net.Conn) {
	t.mu.Lock()
	if t.conns == nil {
		t.conns = make(map[net.Conn]struct{})
	}
	t.conns[c] = struct{}{}
	t.mu.Unlock()
}

func (t *connSet) remove(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

func (t *connSet) closeAll() {
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
}

// startTCP opens the raw binary listener and its accept loop.
func (s *Server) startTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ingest: tcp listen %s: %w", addr, err)
	}
	s.tcpLn = &boundedListener{Listener: ln, sem: make(chan struct{}, s.cfg.MaxConns)}
	s.tcpWG.Add(1)
	go func() {
		defer s.tcpWG.Done()
		for {
			c, err := s.tcpLn.Accept()
			if err != nil {
				return // listener closed by Shutdown
			}
			s.tcpWG.Add(1)
			go s.serveTCPConn(c)
		}
	}()
	return nil
}

// TCPAddr returns the raw binary listener's bound address ("" when the
// TCP wire is disabled).
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// serveTCPConn runs one connection's frame loop. The inflight dance
// mirrors handleIngest: the counter is bumped before the draining
// check, so Shutdown's poll cannot miss a frame that will touch the
// pipes.
func (s *Server) serveTCPConn(c net.Conn) {
	defer s.tcpWG.Done()
	s.tcp.add(c)
	defer func() {
		s.tcp.remove(c)
		c.Close()
	}()
	// A conn accepted in the instant between Shutdown's closeAll sweep
	// and the listener close would otherwise sit in its first read until
	// the idle timeout: registration above orders this load after the
	// sweep's unlock, so one of the two always catches it.
	if s.draining.Load() {
		return
	}

	// The per-frame byte budget rides under the bufio layer, counting
	// bytes actually pulled off the socket — the raw-wire analogue of
	// the HTTP handler's MaxBytesReader. It is re-granted per frame;
	// read-ahead paid by the previous grant stays paid.
	budget := &budgetReader{r: c}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(budget)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	var status [1]byte
	for {
		budget.n = maxBatchBytes
		c.SetReadDeadline(time.Now().Add(tcpIdleTimeout))
		batch, err := readBinaryBatch(br, maxBatchSummaries)
		if err == io.EOF {
			return // clean close between frames
		}
		if errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) {
			// Shutdown's force-close or the idle reaper, not a bad frame.
			return
		}
		if err != nil {
			// Torn, hostile, or oversized frame: framing is unrecoverable
			// on a stream, so answer bad and drop the connection.
			s.metrics.BadBatches.Add(1)
			status[0] = tcpStatusBad
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			c.Write(status[:])
			return
		}
		s.inflight.Add(1)
		if s.draining.Load() {
			s.inflight.Add(-1)
			status[0] = tcpStatusBusy
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			c.Write(status[:])
			return
		}
		if s.enqueue(batch) {
			s.metrics.AcceptedBatches.Add(1)
			s.metrics.AcceptedSummaries.Add(int64(len(batch)))
			status[0] = tcpStatusAccepted
		} else {
			s.metrics.RejectedBatches.Add(1)
			status[0] = tcpStatusBusy
		}
		s.inflight.Add(-1)
		c.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write(status[:]); err != nil {
			return
		}
	}
}
