// Package core implements AcuteMon, the paper's contribution (§4): an
// accurate smartphone RTT measurement scheme that defeats the
// energy-saving delay inflation by keeping the phone awake for exactly
// the duration of the measurement.
//
// AcuteMon runs two concurrent threads (Fig. 6):
//
//   - the background-traffic thread (BT) sends one warm-up packet, waits
//     dpre for the SDIO bus promotion to finish, then emits lightweight
//     background packets every db < min(Tis, Tip). All BT packets carry
//     TTL=1, so the first-hop router drops them and nothing beyond the
//     gateway is burdened;
//   - the measurement thread (MT), a native (non-Dalvik) program, sends
//     K probes — TCP SYN/ACK or HTTP request/response — in stop-and-wait
//     fashion and records user-level RTTs.
package core

import (
	"context"
	"time"

	"repro/internal/android"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tools"
)

// ProbeType selects the MT's probe mechanism.
type ProbeType int

// Probe mechanisms (§4.1: TCP control messages and TCP data packets;
// "easily extended to UDP and ICMP").
const (
	ProbeTCPSyn ProbeType = iota
	ProbeHTTPGet
	ProbeUDPEcho
	ProbeICMPEcho
)

// String implements fmt.Stringer.
func (p ProbeType) String() string {
	switch p {
	case ProbeTCPSyn:
		return "tcp-syn"
	case ProbeHTTPGet:
		return "http-get"
	case ProbeUDPEcho:
		return "udp-echo"
	case ProbeICMPEcho:
		return "icmp-echo"
	default:
		return "probe(?)"
	}
}

// Config parameterises an AcuteMon run.
type Config struct {
	// K is the number of probes (the paper uses 100 in §4.2).
	K     int
	Probe ProbeType
	// WarmupDelay is dpre: Tprom < dpre < min(Tis, Tip). Empirically
	// 20 ms (§4.1).
	WarmupDelay time.Duration
	// BackgroundInterval is db < min(Tis, Tip); empirically 20 ms.
	BackgroundInterval time.Duration
	// BackgroundTTL is the TTL on warm-up/background packets (1).
	BackgroundTTL byte
	// NoBackground suppresses the BT entirely (the §4.4 experiment pairs
	// this with a bus-sleep-disabled driver).
	NoBackground bool
	// ProbeTimeout abandons an unanswered probe.
	ProbeTimeout time.Duration
	// Target/TargetPort address the measurement server.
	Target     packet.IPv4Addr
	TargetPort uint16
	// WarmupTarget receives the TTL=1 traffic (never actually reached).
	WarmupTarget     packet.IPv4Addr
	WarmupTargetPort uint16
}

// DefaultConfig returns the paper's empirical parameters.
func DefaultConfig() Config {
	return Config{
		K:                  100,
		Probe:              ProbeTCPSyn,
		WarmupDelay:        20 * time.Millisecond,
		BackgroundInterval: 20 * time.Millisecond,
		BackgroundTTL:      1,
		ProbeTimeout:       2 * time.Second,
		Target:             testbed.ServerIP,
		TargetPort:         80,
		WarmupTarget:       testbed.WarmupIP,
		WarmupTargetPort:   33434,
	}
}

// Result extends the common tool result with BT accounting.
type Result struct {
	tools.Result
	// WarmupsSent counts warm-up packets (1 per run).
	WarmupsSent int
	// BackgroundSent counts db-interval packets.
	BackgroundSent int
	// Started/Finished bracket the measurement phase.
	Started, Finished time.Duration
}

// Monitor is an AcuteMon instance bound to a testbed phone.
type Monitor struct {
	tb  *testbed.Testbed
	cfg Config
}

// New creates a monitor. Zero-value config fields are filled from
// DefaultConfig.
func New(tb *testbed.Testbed, cfg Config) *Monitor {
	def := DefaultConfig()
	if cfg.K <= 0 {
		cfg.K = def.K
	}
	if cfg.WarmupDelay <= 0 {
		cfg.WarmupDelay = def.WarmupDelay
	}
	if cfg.BackgroundInterval <= 0 {
		cfg.BackgroundInterval = def.BackgroundInterval
	}
	if cfg.BackgroundTTL == 0 {
		cfg.BackgroundTTL = def.BackgroundTTL
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = def.ProbeTimeout
	}
	if cfg.Target == (packet.IPv4Addr{}) {
		cfg.Target = def.Target
	}
	if cfg.TargetPort == 0 {
		cfg.TargetPort = def.TargetPort
	}
	if cfg.WarmupTarget == (packet.IPv4Addr{}) {
		cfg.WarmupTarget = def.WarmupTarget
	}
	if cfg.WarmupTargetPort == 0 {
		cfg.WarmupTargetPort = def.WarmupTargetPort
	}
	return &Monitor{tb: tb, cfg: cfg}
}

// Run executes one AcuteMon measurement and drives the simulation until
// it completes.
func (m *Monitor) Run() *Result {
	res, _ := m.RunContext(context.Background())
	return res
}

// RunContext is Run under cooperative cancellation: the event loop is
// stepped with periodic ctx checks, and a cancelled context returns the
// partial Result alongside ctx's error. With a background context it
// steps the exact event sequence Run always has.
func (m *Monitor) RunContext(ctx context.Context) (*Result, error) {
	res := &Result{Result: tools.Result{Tool: "acutemon", Records: make([]tools.ProbeRecord, m.cfg.K)}}
	done := false
	m.start(res, func() { done = true })
	// Upper bound: warm-up + K × (timeout) + slack.
	limit := m.cfg.WarmupDelay + time.Duration(m.cfg.K)*m.cfg.ProbeTimeout + 5*time.Second
	deadline := m.tb.Sim.Now() + limit
	err := m.tb.Sim.StepUntilCtx(ctx, deadline, func() bool { return done })
	return res, err
}

// start launches BT + MT; onDone fires when the MT completes and the BT
// has been stopped.
func (m *Monitor) start(res *Result, onDone func()) {
	tb := m.tb
	phone := tb.Phone
	tr := tb.Trace
	res.Started = tb.Sim.Now()

	bg, err := phone.Stack.OpenUDP(0)
	if err != nil {
		panic("acutemon: bg socket: " + err.Error())
	}
	bgPayload := []byte{0xAC, 0x07} // tiny: the goal is wake-keeping only

	// --- BT: warm-up phase ---
	if !m.cfg.NoBackground {
		tr.Add(tb.Sim.Now(), "BT", "warmup_send", "ttl=1")
		bg.SendTo(m.cfg.WarmupTarget, m.cfg.WarmupTargetPort, bgPayload, m.cfg.BackgroundTTL)
		res.WarmupsSent++
	}

	stopBG := false
	var bgLoop func()
	bgLoop = func() {
		if stopBG || m.cfg.NoBackground {
			return
		}
		tb.Sim.Post(m.cfg.BackgroundInterval, func() {
			if stopBG {
				return
			}
			tr.Add(tb.Sim.Now(), "BT", "background_send", "ttl=1")
			bg.SendTo(m.cfg.WarmupTarget, m.cfg.WarmupTargetPort, bgPayload, m.cfg.BackgroundTTL)
			res.BackgroundSent++
			bgLoop()
		})
	}

	finish := func() {
		stopBG = true
		bg.Close()
		res.Finished = tb.Sim.Now()
		for i := range res.Records {
			if !res.Records[i].OK {
				res.Lost++
			}
		}
		tr.Add(tb.Sim.Now(), "BT", "stopped", "")
		onDone()
	}

	// --- MT: starts after dpre, while BT keeps the phone awake ---
	tb.Sim.Post(m.cfg.WarmupDelay, func() {
		tr.Add(tb.Sim.Now(), "MT", "measurement_start", "")
		bgLoop()
		m.runProbes(res, finish)
	})
}

// probeLoop is one run's stop-and-wait probe sequence: probe i is in
// flight until its response arrives or its timeout fires, whichever
// comes first, and then probe i+1 goes out. One Timer serves every
// probe, so a probe answered in time leaves no dead timeout queued.
type probeLoop struct {
	m       *Monitor
	res     *Result
	finish  func()
	i       int
	settled bool // probe i was answered or timed out
	timeout *simtime.Timer
}

func (m *Monitor) runProbes(res *Result, finish func()) {
	l := &probeLoop{m: m, res: res, finish: finish}
	l.timeout = simtime.NewTimer(m.tb.Sim, l.expire)
	l.send(0)
}

// settle ends probe i and stops its timeout; it reports false when
// probe i had already ended.
func (l *probeLoop) settle(i int) bool {
	if i != l.i || l.settled {
		return false
	}
	l.settled = true
	l.timeout.Stop()
	return true
}

// complete records the response respID to probe i.
func (l *probeLoop) complete(i int, respID uint64) {
	if !l.settle(i) {
		return
	}
	tb := l.m.tb
	rec := &l.res.Records[i]
	rec.RecvAt = tb.Sim.Now()
	rec.RespID = respID
	rec.RTT = rec.RecvAt - rec.SentAt
	rec.OK = true
	tb.Trace.Addf(tb.Sim.Now(), "MT", "probe_done", "k=%d rtt=%v", i, rec.RTT)
	l.send(i + 1)
}

// expire abandons the probe in flight.
func (l *probeLoop) expire() {
	i := l.i
	l.settled = true
	l.m.tb.Trace.Addf(l.m.tb.Sim.Now(), "MT", "probe_timeout", "k=%d", i)
	l.send(i + 1)
}

// send starts probe i, or finishes the run after the last one.
func (l *probeLoop) send(i int) {
	m, res := l.m, l.res
	if i >= m.cfg.K {
		l.finish()
		return
	}
	tb := m.tb
	rec := &res.Records[i]
	rec.Seq = i
	res.Sent++
	l.i, l.settled = i, false
	l.timeout.Reset(m.cfg.ProbeTimeout)
	complete := func(respID uint64) { l.complete(i, respID) }

	rec.SentAt = tb.Sim.Now()
	tb.Trace.Addf(tb.Sim.Now(), "MT", "probe_send", "k=%d type=%s", i, m.cfg.Probe)
	phone := tb.Phone
	// The MT is a pre-compiled native binary (§4.1), so the user-space
	// overhead is the native one regardless of the app's own runtime.
	phone.AppDoAs(android.NativeC, func() {
		switch m.cfg.Probe {
		case ProbeTCPSyn:
			conn := phone.Stack.Dial(m.cfg.Target, m.cfg.TargetPort)
			rec.ReqID = conn.SynPacket.ID
			conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
				phone.AppDoAs(android.NativeC, func() { complete(synAck.ID) })
				conn.Close()
			}
		case ProbeHTTPGet:
			conn := phone.Stack.Dial(m.cfg.Target, m.cfg.TargetPort)
			conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
				// Connect time is not the sample; re-time the GET.
				rec.SentAt = tb.Sim.Now()
				req := conn.Send([]byte("GET / HTTP/1.1\r\nHost: acutemon\r\n\r\n"))
				if req != nil {
					rec.ReqID = req.ID
				}
			}
			conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
				phone.AppDoAs(android.NativeC, func() { complete(p.ID) })
				conn.Close()
			}
		case ProbeUDPEcho:
			sock, err := phone.Stack.OpenUDP(0)
			if err != nil {
				if l.settle(i) {
					l.send(i + 1)
				}
				return
			}
			sock.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
				phone.AppDoAs(android.NativeC, func() { complete(p.ID) })
				sock.Close()
			})
			req := sock.SendTo(m.cfg.Target, 7, []byte("acutemon"), 0)
			rec.ReqID = req.ID
		case ProbeICMPEcho:
			id := uint16(0xAC00 + i%256)
			phone.Stack.OnICMP(id, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) {
				phone.Stack.CloseICMP(id)
				phone.AppDoAs(android.NativeC, func() { complete(p.ID) })
			})
			req := phone.Stack.SendEcho(m.cfg.Target, id, uint16(i), 56)
			rec.ReqID = req.ID
		}
	})
}

// OverheadStats extracts the Fig 7 quantities for an AcuteMon run via
// the shared tools.ExtractLayers capture walk.
func OverheadStats(tb *testbed.Testbed, res *Result) (duk, dkn stats.Sample) {
	l := tools.ExtractLayers(tb, tb.MergedCapture(), res.Records)
	return l.DuK, l.DkN
}
