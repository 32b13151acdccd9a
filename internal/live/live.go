// Package live runs the AcuteMon measurement scheme over real sockets
// using only the standard library. It is the deployable counterpart of
// internal/core: the same warm-up / background-traffic / stop-and-wait
// probe structure, but against actual networks. On a phone-class device
// the background traffic keeps the WNIC and its host bus awake exactly
// as in the paper; on any device it doubles as a keep-alive that pins
// ARP/ND entries and radio power states along the first hop.
package live

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// ProbeType selects the live probe mechanism.
type ProbeType int

// Probe mechanisms.
const (
	// ProbeTCPConnect measures TCP connect time (SYN → SYN/ACK).
	ProbeTCPConnect ProbeType = iota
	// ProbeHTTPGet measures GET → first response byte on a persistent
	// connection.
	ProbeHTTPGet
	// ProbeUDPEcho measures a datagram round trip against a UDP echo
	// server.
	ProbeUDPEcho
)

// String implements fmt.Stringer.
func (p ProbeType) String() string {
	switch p {
	case ProbeTCPConnect:
		return "tcp-connect"
	case ProbeHTTPGet:
		return "http-get"
	case ProbeUDPEcho:
		return "udp-echo"
	default:
		return "probe(?)"
	}
}

// Config parameterises a live measurement.
type Config struct {
	// Target is the measurement server, "host:port".
	Target string
	Probe  ProbeType
	// K is the probe count.
	K int
	// WarmupDelay (dpre) and BackgroundInterval (db) follow §4.1's
	// empirical 20 ms defaults.
	WarmupDelay        time.Duration
	BackgroundInterval time.Duration
	// WarmupAddr receives the TTL-limited background datagrams,
	// "host:port". Defaults to the target host, discard port 9.
	WarmupAddr string
	// BackgroundTTL is applied to background datagrams so they die at
	// the first hop (default 1). TTL control needs a raw-socket-capable
	// platform; failures fall back to regular TTL with a note in the
	// result.
	BackgroundTTL int
	// ProbeTimeout bounds each probe.
	ProbeTimeout time.Duration
	// NoBackground disables the BT (for A/B comparisons).
	NoBackground bool
	// OnProbe, when set, observes every probe as it completes — the
	// hook the session layer's Sink streams through. It runs on the
	// measurement path, so it must not block.
	OnProbe func(ProbeRecord)
}

func (c *Config) fill() error {
	if c.Target == "" {
		return fmt.Errorf("live: Target required")
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.WarmupDelay <= 0 {
		c.WarmupDelay = 20 * time.Millisecond
	}
	if c.BackgroundInterval <= 0 {
		c.BackgroundInterval = 20 * time.Millisecond
	}
	if c.BackgroundTTL <= 0 {
		c.BackgroundTTL = 1
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.WarmupAddr == "" {
		host, _, err := net.SplitHostPort(c.Target)
		if err != nil {
			return fmt.Errorf("live: parsing target: %w", err)
		}
		c.WarmupAddr = net.JoinHostPort(host, "9")
	}
	return nil
}

// ProbeRecord is one live probe outcome.
type ProbeRecord struct {
	Seq int
	RTT time.Duration
	Err error
}

// Result aggregates a live run.
type Result struct {
	Records []ProbeRecord
	// Sent and Lost account for all probes attempted, including failed
	// ones. Plain fields, matching the canonical session.Result shape
	// (Lost used to be a method here while every other result type
	// exposed a field).
	Sent, Lost int
	// BackgroundSent counts BT datagrams; TTLLimited reports whether the
	// TTL restriction could be applied.
	BackgroundSent int
	TTLLimited     bool
}

// Sample returns successful RTTs.
func (r *Result) Sample() stats.Sample {
	var s stats.Sample
	for _, rec := range r.Records {
		if rec.Err == nil {
			s = append(s, rec.RTT)
		}
	}
	return s
}

// Measure runs the scheme: warm-up, dpre wait, background ticker, then K
// stop-and-wait probes. ctx cancels the run early.
func Measure(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{}

	var bg *backgroundThread
	if !cfg.NoBackground {
		var err error
		bg, err = startBackground(cfg)
		if err != nil {
			return nil, fmt.Errorf("live: background thread: %w", err)
		}
		defer func() {
			res.BackgroundSent = bg.stop()
			res.TTLLimited = bg.ttlLimited
		}()
		select {
		case <-time.After(cfg.WarmupDelay):
		case <-ctx.Done():
			return res, ctx.Err()
		}
	}

	prober, err := NewProber(cfg)
	if err != nil {
		return nil, err
	}
	defer prober.Close()

	for i := 0; i < cfg.K; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rtt, err := prober.Probe(ctx)
		if err != nil && ctx.Err() != nil {
			// The probe was aborted by cancellation, not resolved: it
			// is neither ok nor lost, so it stays out of the records
			// and the OnProbe stream.
			return res, ctx.Err()
		}
		rec := ProbeRecord{Seq: i, RTT: rtt, Err: err}
		res.Records = append(res.Records, rec)
		res.Sent++
		if err != nil {
			res.Lost++
		}
		if cfg.OnProbe != nil {
			cfg.OnProbe(rec)
		}
	}
	return res, nil
}

// backgroundThread is the BT: a goroutine emitting TTL-limited
// datagrams every db.
type backgroundThread struct {
	conn       *net.UDPConn
	ttlLimited bool
	done       chan struct{}
	wg         sync.WaitGroup
	mu         sync.Mutex
	sent       int
}

func startBackground(cfg Config) (*backgroundThread, error) {
	raddr, err := net.ResolveUDPAddr("udp4", cfg.WarmupAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		return nil, err
	}
	bt := &backgroundThread{conn: conn, done: make(chan struct{})}
	bt.ttlLimited = setTTL(conn, cfg.BackgroundTTL) == nil

	payload := []byte{0xAC, 0x07}
	// Warm-up packet, then the periodic background stream.
	if _, err := conn.Write(payload); err != nil {
		conn.Close()
		return nil, err
	}
	bt.mu.Lock()
	bt.sent++
	bt.mu.Unlock()

	// The period counts from the warm-up packet, not from whenever the
	// goroutine is first scheduled: a late start must not stretch the
	// first gap past db.
	tick := time.NewTicker(cfg.BackgroundInterval)
	bt.wg.Add(1)
	go func() {
		defer bt.wg.Done()
		defer tick.Stop()
		for {
			select {
			case <-bt.done:
				return
			case <-tick.C:
				if _, err := bt.conn.Write(payload); err != nil {
					return
				}
				bt.mu.Lock()
				bt.sent++
				bt.mu.Unlock()
			}
		}
	}()
	return bt, nil
}

func (bt *backgroundThread) stop() int {
	close(bt.done)
	bt.wg.Wait()
	bt.conn.Close()
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return bt.sent
}

// Prober abstracts the MT probe mechanisms: one blocking probe at a
// time against the configured target. Exported so the session-layer
// tool methods (interval-paced ping/httping/javaping/ping2 analogues)
// can reuse the same probing primitives the AcuteMon scheme uses.
type Prober interface {
	// Probe runs one probe and returns its RTT.
	Probe(ctx context.Context) (time.Duration, error)
	// Close releases the prober's connection state.
	Close()
}

// NewProber builds a single-probe runner for cfg (Target, Probe, and
// ProbeTimeout are the fields that matter).
func NewProber(cfg Config) (Prober, error) {
	switch cfg.Probe {
	case ProbeTCPConnect:
		return &tcpProber{cfg: cfg}, nil
	case ProbeHTTPGet:
		return newHTTPProber(cfg)
	case ProbeUDPEcho:
		return newUDPProber(cfg)
	default:
		return nil, fmt.Errorf("live: unknown probe type %d", cfg.Probe)
	}
}

// tcpProber measures connect RTT with a fresh connection per probe.
type tcpProber struct{ cfg Config }

func (p *tcpProber) Probe(ctx context.Context) (time.Duration, error) {
	d := net.Dialer{Timeout: p.cfg.ProbeTimeout}
	start := time.Now()
	conn, err := d.DialContext(ctx, "tcp4", p.cfg.Target)
	rtt := time.Since(start)
	if err != nil {
		return 0, err
	}
	conn.Close()
	return rtt, nil
}

func (p *tcpProber) Close() {}

// httpProber holds a persistent connection and times GET → first byte.
type httpProber struct {
	cfg  Config
	conn net.Conn
	rd   *bufio.Reader
}

func newHTTPProber(cfg Config) (*httpProber, error) {
	conn, err := net.DialTimeout("tcp4", cfg.Target, cfg.ProbeTimeout)
	if err != nil {
		return nil, fmt.Errorf("live: http dial: %w", err)
	}
	return &httpProber{cfg: cfg, conn: conn, rd: bufio.NewReader(conn)}, nil
}

func (p *httpProber) Probe(ctx context.Context) (time.Duration, error) {
	deadline := time.Now().Add(p.cfg.ProbeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := p.conn.SetDeadline(deadline); err != nil {
		return 0, err
	}
	req := "GET / HTTP/1.1\r\nHost: acutemon\r\nConnection: keep-alive\r\n\r\n"
	start := time.Now()
	if _, err := p.conn.Write([]byte(req)); err != nil {
		return 0, err
	}
	// First byte of the status line is the measurement point; drain the
	// rest of the response headers + declared body afterwards.
	if _, err := p.rd.Peek(1); err != nil {
		return 0, err
	}
	rtt := time.Since(start)
	if err := drainHTTPResponse(p.rd); err != nil {
		return rtt, err
	}
	return rtt, nil
}

func (p *httpProber) Close() { p.conn.Close() }

// drainHTTPResponse consumes one HTTP response with a Content-Length.
func drainHTTPResponse(rd *bufio.Reader) error {
	contentLen := 0
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		if line == "\r\n" || line == "\n" {
			break
		}
		var n int
		if _, err := fmt.Sscanf(line, "Content-Length: %d", &n); err == nil {
			contentLen = n
		}
	}
	if contentLen > 0 {
		if _, err := rd.Discard(contentLen); err != nil {
			return err
		}
	}
	return nil
}

// udpProber bounces datagrams off a UDP echo server.
type udpProber struct {
	cfg  Config
	conn *net.UDPConn
	seq  byte
}

func newUDPProber(cfg Config) (*udpProber, error) {
	raddr, err := net.ResolveUDPAddr("udp4", cfg.Target)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		return nil, err
	}
	return &udpProber{cfg: cfg, conn: conn}, nil
}

func (p *udpProber) Probe(ctx context.Context) (time.Duration, error) {
	p.seq++
	deadline := time.Now().Add(p.cfg.ProbeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := p.conn.SetDeadline(deadline); err != nil {
		return 0, err
	}
	msg := []byte{0xAC, p.seq}
	start := time.Now()
	if _, err := p.conn.Write(msg); err != nil {
		return 0, err
	}
	buf := make([]byte, 64)
	for {
		n, err := p.conn.Read(buf)
		if err != nil {
			return 0, err
		}
		if n >= 2 && buf[0] == 0xAC && buf[1] == p.seq {
			return time.Since(start), nil
		}
		// Stale echo from an earlier (timed-out) probe: keep reading.
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("live: udp probe %d timed out", p.seq)
		}
	}
}

func (p *udpProber) Close() { p.conn.Close() }
