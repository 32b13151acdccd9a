// Package cellular implements the extension the paper sketches in §4:
// "Although AcuteMon is designed mainly for WiFi networks, it can be
// easily extended to cellular environment, mitigating the effect of RRC
// (Radio Resource Control) state transition."
//
// The modem model is the classic three-state RRC machine: IDLE (no
// radio resources), FACH (shared low-rate channel), and DCH (dedicated
// channel). Sending from IDLE or FACH requires a *promotion* costing
// hundreds of milliseconds to seconds; inactivity timers demote
// DCH→FACH→IDLE. Exactly like SDIO sleep and PSM in WiFi, the
// promotions inflate naive RTT measurements, and exactly like there, a
// trickle of background traffic pins the modem in DCH for the duration
// of a measurement.
package cellular

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// RRCState is the modem's radio resource state.
type RRCState int

// RRC states.
const (
	Idle RRCState = iota
	FACH
	DCH
)

// String implements fmt.Stringer.
func (s RRCState) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case FACH:
		return "FACH"
	case DCH:
		return "DCH"
	default:
		return fmt.Sprintf("RRC(%d)", int(s))
	}
}

// Config parameterises the modem.
type Config struct {
	Name string
	// Promotion delays.
	IdleToDCH simtime.Dist
	FACHToDCH simtime.Dist
	// PagingDelay is the extra cost of a downlink packet finding the
	// modem in IDLE (paging + promotion).
	PagingDelay simtime.Dist
	// Demotion (inactivity) timers: T1 DCH→FACH, T2 FACH→IDLE.
	T1, T2 time.Duration
	// Per-state one-way link latencies to the operator gateway.
	DCHLatency  simtime.Dist
	FACHLatency simtime.Dist
}

// UMTS returns 3G-era timings (promotions of seconds, T1 ≈ 5 s), the
// regime MobiPerf-era measurements dealt with.
func UMTS() Config {
	return Config{
		Name:        "umts",
		IdleToDCH:   simtime.Uniform{Lo: 1800 * time.Millisecond, Hi: 2300 * time.Millisecond},
		FACHToDCH:   simtime.Uniform{Lo: 500 * time.Millisecond, Hi: 900 * time.Millisecond},
		PagingDelay: simtime.Uniform{Lo: 150 * time.Millisecond, Hi: 400 * time.Millisecond},
		T1:          5 * time.Second,
		T2:          12 * time.Second,
		DCHLatency:  simtime.Uniform{Lo: 20 * time.Millisecond, Hi: 35 * time.Millisecond},
		FACHLatency: simtime.Uniform{Lo: 70 * time.Millisecond, Hi: 140 * time.Millisecond},
	}
}

// LTE returns 4G timings (connection setup ~250 ms, DRX-based idle).
func LTE() Config {
	return Config{
		Name:        "lte",
		IdleToDCH:   simtime.Uniform{Lo: 200 * time.Millisecond, Hi: 350 * time.Millisecond},
		FACHToDCH:   simtime.Uniform{Lo: 50 * time.Millisecond, Hi: 120 * time.Millisecond},
		PagingDelay: simtime.Uniform{Lo: 50 * time.Millisecond, Hi: 150 * time.Millisecond},
		T1:          10 * time.Second,
		T2:          60 * time.Second,
		DCHLatency:  simtime.Uniform{Lo: 10 * time.Millisecond, Hi: 20 * time.Millisecond},
		FACHLatency: simtime.Uniform{Lo: 25 * time.Millisecond, Hi: 50 * time.Millisecond},
	}
}

// Stats counts modem events.
type Stats struct {
	Promotions    uint64
	Demotions     uint64
	PacketsUp     uint64
	PacketsDown   uint64
	PromotionWait time.Duration
}

// Modem is the cellular interface. It implements kernel.Device upward
// (Send) and exchanges packets with the operator network via the
// callbacks set with Connect.
type Modem struct {
	sim *simtime.Sim
	cfg Config
	tr  *trace.Trace

	state     RRCState
	promoting bool
	pendingUp []*packet.Packet
	t1        *simtime.Timer
	t2        *simtime.Timer

	// toNet carries uplink packets into the operator network; recvUp
	// delivers downlink packets to the kernel.
	toNet  func(*packet.Packet)
	recvUp func(*packet.Packet)

	Stats Stats
}

// NewModem creates a modem in IDLE. tr may be nil.
func NewModem(sim *simtime.Sim, cfg Config, tr *trace.Trace) *Modem {
	m := &Modem{sim: sim, cfg: cfg, tr: tr, state: Idle}
	m.t1 = simtime.NewTimer(sim, m.demoteFromDCH)
	m.t2 = simtime.NewTimer(sim, m.demoteFromFACH)
	return m
}

// Connect wires the modem to the network and the kernel.
func (m *Modem) Connect(toNet func(*packet.Packet), recvUp func(*packet.Packet)) {
	m.toNet = toNet
	m.recvUp = recvUp
}

func (m *Modem) sample(d simtime.Dist) time.Duration {
	if d == nil {
		return 0
	}
	return d.Sample(m.sim)
}

// activity restarts the DCH inactivity timer.
func (m *Modem) activity() {
	if m.state == DCH {
		m.t1.Reset(m.cfg.T1)
	}
}

func (m *Modem) demoteFromDCH() {
	if m.state != DCH {
		return
	}
	m.state = FACH
	m.Stats.Demotions++
	m.tr.Add(m.sim.Now(), "rrc", "demote_DCH_FACH", "")
	m.t2.Reset(m.cfg.T2)
}

func (m *Modem) demoteFromFACH() {
	if m.state != FACH {
		return
	}
	m.state = Idle
	m.Stats.Demotions++
	m.tr.Add(m.sim.Now(), "rrc", "demote_FACH_IDLE", "")
}

// promote brings the modem to DCH, then flushes the uplink queue.
// Concurrent promotion requests coalesce.
func (m *Modem) promote() {
	if m.promoting || m.state == DCH {
		return
	}
	m.promoting = true
	var cost time.Duration
	if m.state == Idle {
		cost = m.sample(m.cfg.IdleToDCH)
	} else {
		cost = m.sample(m.cfg.FACHToDCH)
	}
	m.t2.Stop()
	m.Stats.PromotionWait += cost
	m.tr.Addf(m.sim.Now(), "rrc", "promote", "from=%s cost=%v", m.state, cost)
	m.sim.Post(cost, func() {
		m.promoting = false
		m.state = DCH
		m.Stats.Promotions++
		m.t1.Reset(m.cfg.T1)
		queued := m.pendingUp
		m.pendingUp = nil
		for _, p := range queued {
			m.transmitUp(p)
		}
	})
}

// Send implements kernel.Device: uplink entry.
func (m *Modem) Send(p *packet.Packet) {
	switch m.state {
	case DCH:
		m.activity()
		m.transmitUp(p)
	default:
		m.pendingUp = append(m.pendingUp, p)
		m.promote()
	}
}

func (m *Modem) transmitUp(p *packet.Packet) {
	m.Stats.PacketsUp++
	d := m.sample(m.cfg.DCHLatency)
	m.sim.Post(d, func() {
		if m.toNet != nil {
			m.toNet(p)
		}
	})
}

// DeliverFromNet accepts a downlink packet from the operator network.
func (m *Modem) DeliverFromNet(p *packet.Packet) {
	m.Stats.PacketsDown++
	switch m.state {
	case DCH:
		m.activity()
		m.sim.Post(m.sample(m.cfg.DCHLatency), func() { m.deliverUp(p) })
	case FACH:
		// Served on the shared channel (slow), which also triggers a
		// promotion for subsequent traffic.
		m.promote()
		m.sim.Post(m.sample(m.cfg.FACHLatency), func() { m.deliverUp(p) })
	default: // Idle: paging, then promotion, then delivery.
		wait := m.sample(m.cfg.PagingDelay)
		m.promote()
		m.sim.Post(wait+m.sample(m.cfg.DCHLatency), func() { m.deliverUp(p) })
	}
}

func (m *Modem) deliverUp(p *packet.Packet) {
	if m.recvUp != nil {
		m.recvUp(p)
	}
}
