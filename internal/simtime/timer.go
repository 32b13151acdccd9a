package simtime

import "time"

// Timer is a resettable one-shot timer, the building block for the
// watchdog and power-save timeouts modelled in this repository (SDIO
// idle demotion, adaptive-PSM timeout, retransmission timers).
//
// A Timer owns one event and re-arms it in place: re-arming an armed
// timer reschedules it, matching mod_timer() semantics in the Linux
// kernel drivers the paper instruments, and allocates nothing.
type Timer struct {
	sim *Sim
	ev  event
}

// NewTimer returns an unarmed timer that runs fn on expiry.
func NewTimer(sim *Sim, fn func()) *Timer {
	if fn == nil {
		panic("simtime: nil timer callback")
	}
	return &Timer{sim: sim, ev: event{fn: fn, idx: -1}}
}

// Reset (re)arms the timer to fire after d (d < 0 is clamped to 0). It
// returns true when the timer was already armed (mod_timer semantics).
func (t *Timer) Reset(d time.Duration) bool {
	armed := t.Armed()
	if d < 0 {
		d = 0
	}
	t.sim.arm(&t.ev, t.sim.now+d)
	return armed
}

// Stop disarms the timer, reporting whether it was armed.
func (t *Timer) Stop() bool {
	armed := t.Armed()
	t.sim.cancel(&t.ev)
	return armed
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev.idx >= 0 }

// Ticker fires a callback at a fixed period until stopped. It models
// periodic kernel work such as the driver watchdog (dhd_watchdog_ms) and
// the AP's beacon generation (TBTT). Like a Timer it owns one event,
// re-armed in place after every tick.
type Ticker struct {
	sim     *Sim
	period  time.Duration
	fn      func()
	ev      event
	stopped bool
	// phase anchors tick times to phase + k*period, so listeners that
	// compute "time to next tick" (beacon TBTT arithmetic) stay exact
	// even when a callback runs late in event ordering.
	phase time.Duration
}

// NewTicker starts a ticker with the given period. The first tick fires
// after offset (use 0 for an immediate-phase ticker; offset lets the AP
// randomise its beacon phase). period must be positive.
func NewTicker(sim *Sim, period, offset time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	if fn == nil {
		panic("simtime: nil ticker callback")
	}
	t := &Ticker{sim: sim, period: period, fn: fn, phase: sim.Now() + offset}
	t.ev = event{fn: t.tick, idx: -1}
	if offset < 0 {
		offset = 0
	}
	sim.arm(&t.ev, sim.now+offset)
	return t
}

func (t *Ticker) tick() {
	t.fn()
	if t.stopped { // Stop was called from inside fn
		return
	}
	t.sim.arm(&t.ev, t.sim.now+t.period)
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.sim.cancel(&t.ev)
}

// NextAfter returns the first tick instant strictly later than ts.
func (t *Ticker) NextAfter(ts time.Duration) time.Duration {
	if ts < t.phase {
		return t.phase
	}
	k := (ts-t.phase)/t.period + 1
	return t.phase + k*t.period
}
