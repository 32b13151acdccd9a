// Package sdio models the host↔WNIC bus power management that the paper
// identifies as the main *internal* source of delay inflation (§3.2.1).
//
// In the bcmdhd driver a watchdog runs every dhd_watchdog_ms (10 ms) and
// increments an idlecount whenever the hardware was idle over the last
// tick; when idlecount reaches idletime (5, i.e. 50 ms of idleness) the
// driver puts the SDIO bus to sleep. A packet-send request or a packet
// arrival interrupt must then bring the bus back up, which Table 3
// measures at up to ~14 ms. Qualcomm's wcnss driver applies the same
// scheme to its SMD interface with smaller wake costs; the paper folds
// both under "SDIO bus sleep", and so does this package.
package sdio

import (
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Config parameterises the bus power model.
type Config struct {
	// Name labels the bus in traces ("SDIO" for Broadcom, "SMD" for
	// Qualcomm).
	Name string
	// WatchdogInterval is dhd_watchdog_ms (default 10 ms).
	WatchdogInterval time.Duration
	// IdleTime is the idletime threshold in watchdog ticks (default 5,
	// so the default idle period before sleeping is 50 ms).
	IdleTime int
	// SleepEnabled mirrors the dhdsdio_bussleep knob; the paper's Table 3
	// experiment recompiles the kernel with it disabled.
	SleepEnabled bool
	// WakeTxLatency is the cost of a host-initiated bus wake (KSO write,
	// backplane clock request) paid by dhd_start_xmit when the bus
	// sleeps. Calibrated to Table 3's dvsend row.
	WakeTxLatency simtime.Dist
	// WakeRxLatency is the cost of serving a device interrupt with the
	// bus asleep, paid on the receive path (dvrecv row of Table 3).
	WakeRxLatency simtime.Dist
}

// Broadcom returns the BCM4339-calibrated configuration (Nexus 5).
func Broadcom() Config {
	return Config{
		Name:             "SDIO",
		WatchdogInterval: 10 * time.Millisecond,
		IdleTime:         5,
		SleepEnabled:     true,
		WakeTxLatency:    simtime.Uniform{Lo: 7500 * time.Microsecond, Hi: 12500 * time.Microsecond},
		WakeRxLatency:    simtime.Uniform{Lo: 8500 * time.Microsecond, Hi: 13 * time.Millisecond},
	}
}

// Qualcomm returns the WCN36xx/SMD-calibrated configuration (Nexus 4,
// HTC One). The SMD wake is considerably cheaper than SDIO's, which is
// why Table 2 shows the Nexus 4's internal inflation at ~5 ms against
// the Nexus 5's ~20 ms.
func Qualcomm() Config {
	return Config{
		Name:             "SMD",
		WatchdogInterval: 10 * time.Millisecond,
		IdleTime:         5,
		SleepEnabled:     true,
		WakeTxLatency:    simtime.Uniform{Lo: 2500 * time.Microsecond, Hi: 6 * time.Millisecond},
		WakeRxLatency:    simtime.Uniform{Lo: 1500 * time.Microsecond, Hi: 4 * time.Millisecond},
	}
}

// Stats counts bus power events.
type Stats struct {
	Sleeps     uint64
	Wakes      uint64
	TxAcquires uint64
	RxAcquires uint64
	// WakesPaidTx/Rx count acquisitions that found the bus asleep.
	WakesPaidTx uint64
	WakesPaidRx uint64
	// TotalWakeTime accumulates wake latencies.
	TotalWakeTime time.Duration
}

// Direction tags a bus acquisition.
type Direction int

// Acquisition directions.
const (
	Tx Direction = iota
	Rx
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Tx {
		return "tx"
	}
	return "rx"
}

// Bus is the power-managed host interconnect. All methods run on the
// simulation event loop.
type Bus struct {
	sim *simtime.Sim
	cfg Config
	tr  *trace.Trace

	asleep    bool
	waking    bool
	idlecount int
	// lastActivity is when data last moved across the bus.
	lastActivity time.Duration
	pending      []func()
	watchdog     *simtime.Ticker

	// OnPower, when set, observes sleep transitions (energy accounting).
	OnPower func(asleep bool)

	Stats Stats
}

// setAsleep flips the sleep state, notifying observers.
func (b *Bus) setAsleep(asleep bool) {
	if b.asleep == asleep {
		return
	}
	b.asleep = asleep
	if b.OnPower != nil {
		b.OnPower(asleep)
	}
}

// New creates a bus and starts its watchdog. tr may be nil.
func New(sim *simtime.Sim, cfg Config, tr *trace.Trace) *Bus {
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = 10 * time.Millisecond
	}
	if cfg.IdleTime <= 0 {
		cfg.IdleTime = 5
	}
	b := &Bus{sim: sim, cfg: cfg, tr: tr, lastActivity: sim.Now()}
	b.watchdog = simtime.NewTicker(sim, cfg.WatchdogInterval, cfg.WatchdogInterval, b.onWatchdog)
	return b
}

// Asleep reports whether the bus is sleeping.
func (b *Bus) Asleep() bool { return b.asleep }

// IdlePeriod returns the configured idle period before sleep
// (IdleTime × WatchdogInterval), the paper's Tis.
func (b *Bus) IdlePeriod() time.Duration {
	return time.Duration(b.cfg.IdleTime) * b.cfg.WatchdogInterval
}

// SetSleepEnabled flips the bus-sleep feature at runtime, the equivalent
// of the paper's driver modification for Table 3 and Figure 9.
func (b *Bus) SetSleepEnabled(on bool) {
	b.cfg.SleepEnabled = on
	if !on && b.asleep && !b.waking {
		// Bring the bus up for good.
		b.setAsleep(false)
		b.idlecount = 0
		b.Stats.Wakes++
		b.tr.Add(b.sim.Now(), b.cfg.Name, "bus_wake", "sleep disabled")
	}
}

// onWatchdog is the dhd_watchdog tick: count idleness, demote when the
// idlecount reaches idletime.
func (b *Bus) onWatchdog() {
	if b.asleep || b.waking {
		return
	}
	if b.sim.Now()-b.lastActivity < b.cfg.WatchdogInterval {
		b.idlecount = 0
		return
	}
	b.idlecount++
	if b.cfg.SleepEnabled && b.idlecount >= b.cfg.IdleTime {
		b.setAsleep(true)
		b.idlecount = 0
		b.Stats.Sleeps++
		b.tr.Add(b.sim.Now(), b.cfg.Name, "bus_sleep", "")
	}
}

// Touch marks bus activity, resetting the idle countdown (data moved on
// behalf of an already-acquired operation).
func (b *Bus) Touch() {
	b.lastActivity = b.sim.Now()
	b.idlecount = 0
}

// IdleFor returns how long the bus has been without activity.
func (b *Bus) IdleFor() time.Duration { return b.sim.Now() - b.lastActivity }

// Acquire requests the bus for a transfer. fn runs once the bus is awake
// with the backplane clock ready: immediately when the bus is up, after
// the wake latency when asleep. Concurrent acquisitions during a wake
// coalesce onto the same wake (a single KSO/clock bring-up serves them
// all), matching the dpc loop's behaviour.
func (b *Bus) Acquire(dir Direction, fn func()) {
	if fn == nil {
		panic("sdio: nil acquire callback")
	}
	if dir == Tx {
		b.Stats.TxAcquires++
	} else {
		b.Stats.RxAcquires++
	}
	if !b.asleep {
		b.Touch()
		fn()
		return
	}
	if dir == Tx {
		b.Stats.WakesPaidTx++
	} else {
		b.Stats.WakesPaidRx++
	}
	b.pending = append(b.pending, fn)
	if b.waking {
		return
	}
	b.waking = true
	var lat time.Duration
	if dir == Tx && b.cfg.WakeTxLatency != nil {
		lat = b.cfg.WakeTxLatency.Sample(b.sim)
	} else if dir == Rx && b.cfg.WakeRxLatency != nil {
		lat = b.cfg.WakeRxLatency.Sample(b.sim)
	}
	b.Stats.TotalWakeTime += lat
	b.tr.Addf(b.sim.Now(), b.cfg.Name, "bus_waking", "dir=%s lat=%v", dir, lat)
	b.sim.Post(lat, func() {
		b.waking = false
		b.setAsleep(false)
		b.Stats.Wakes++
		b.Touch()
		b.tr.Add(b.sim.Now(), b.cfg.Name, "bus_wake", "")
		queued := b.pending
		b.pending = nil
		for _, f := range queued {
			f()
		}
	})
}

// String summarises the bus state.
func (b *Bus) String() string {
	state := "awake"
	if b.asleep {
		state = "asleep"
	}
	if b.waking {
		state = "waking"
	}
	return fmt.Sprintf("%s{%s idlecount=%d}", b.cfg.Name, state, b.idlecount)
}
