// Package energy accounts for the power cost of the mechanisms the
// paper studies. AcuteMon's design brief (§4.1) claims it "consumes
// very low battery, because it sends out very few additional packets in
// the measurement phase, and will not affect the energy-saving
// mechanisms when there are no measurement tasks" — this package makes
// that claim measurable: it integrates per-component power over virtual
// time as the radio and host bus move through their states.
//
// Power figures are representative smartphone values (WiFi radio ~220 mW
// awake / ~12 mW dozing, plus per-frame transmit/receive energy; SDIO
// bus ~25 mW awake / ~2 mW asleep). Absolute joules depend on hardware;
// the experiments compare *relative* costs between measurement schemes.
package energy

import (
	"fmt"
	"time"

	"repro/internal/mac"
	"repro/internal/sdio"
	"repro/internal/simtime"
)

// PowerModel holds the component power levels in milliwatts.
type PowerModel struct {
	RadioCAM    float64 // receiver on, idle
	RadioListen float64 // beacon listen window
	RadioDoze   float64
	BusAwake    float64
	BusAsleep   float64
	// TxPower/RxPower are the *additional* draw while a frame is on the
	// air, multiplied by airtime by the caller.
	TxPower float64
	RxPower float64
}

// DefaultPowerModel returns representative smartphone WiFi figures.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		RadioCAM:    220,
		RadioListen: 180,
		RadioDoze:   12,
		BusAwake:    25,
		BusAsleep:   2,
		TxPower:     480,
		RxPower:     210,
	}
}

// Meter integrates component power over virtual time.
type Meter struct {
	sim   *simtime.Sim
	model PowerModel

	radioPower  float64
	radioSince  time.Duration
	radioEnergy float64 // mJ

	busPower  float64
	busSince  time.Duration
	busEnergy float64

	frameEnergy float64 // per-frame tx/rx bursts

	// AwakeTime accumulates radio non-doze time.
	AwakeTime  time.Duration
	awakeSince time.Duration
	dozing     bool
}

// NewMeter creates a meter assuming the radio starts in CAM and the bus
// awake (matching the STA/Bus initial states).
func NewMeter(sim *simtime.Sim, model PowerModel) *Meter {
	return &Meter{
		sim:        sim,
		model:      model,
		radioPower: model.RadioCAM,
		busPower:   model.BusAwake,
		radioSince: sim.Now(),
		busSince:   sim.Now(),
		awakeSince: sim.Now(),
	}
}

// Attach hooks the meter to a station MAC and host bus. Existing hooks
// are chained, not replaced.
func (m *Meter) Attach(sta *mac.STA, bus *sdio.Bus) {
	if sta != nil {
		prev := sta.OnPowerState
		sta.OnPowerState = func(old, new mac.PowerState) {
			if prev != nil {
				prev(old, new)
			}
			m.RadioState(new)
		}
		m.RadioState(sta.State())
	}
	if bus != nil {
		prevB := bus.OnPower
		bus.OnPower = func(asleep bool) {
			if prevB != nil {
				prevB(asleep)
			}
			m.BusState(asleep)
		}
		m.BusState(bus.Asleep())
	}
}

// RadioState records a radio power transition.
func (m *Meter) RadioState(s mac.PowerState) {
	now := m.sim.Now()
	m.radioEnergy += m.radioPower * (now - m.radioSince).Seconds()
	m.radioSince = now
	switch s {
	case mac.StateCAM:
		m.radioPower = m.model.RadioCAM
	case mac.StateListen:
		m.radioPower = m.model.RadioListen
	default:
		m.radioPower = m.model.RadioDoze
	}
	// Awake-time accounting.
	if s == mac.StateDoze {
		if !m.dozing {
			m.AwakeTime += now - m.awakeSince
			m.dozing = true
		}
	} else if m.dozing {
		m.awakeSince = now
		m.dozing = false
	}
}

// BusState records a bus power transition.
func (m *Meter) BusState(asleep bool) {
	now := m.sim.Now()
	m.busEnergy += m.busPower * (now - m.busSince).Seconds()
	m.busSince = now
	if asleep {
		m.busPower = m.model.BusAsleep
	} else {
		m.busPower = m.model.BusAwake
	}
}

// FrameTx charges one transmitted frame of the given airtime.
func (m *Meter) FrameTx(airtime time.Duration) {
	m.frameEnergy += m.model.TxPower * airtime.Seconds()
}

// FrameRx charges one received frame.
func (m *Meter) FrameRx(airtime time.Duration) {
	m.frameEnergy += m.model.RxPower * airtime.Seconds()
}

// settleTo integrates the open intervals up to now.
func (m *Meter) settle() {
	now := m.sim.Now()
	m.radioEnergy += m.radioPower * (now - m.radioSince).Seconds()
	m.radioSince = now
	m.busEnergy += m.busPower * (now - m.busSince).Seconds()
	m.busSince = now
	if !m.dozing {
		m.AwakeTime += now - m.awakeSince
		m.awakeSince = now
	}
}

// Report is a settled energy summary in millijoules.
type Report struct {
	RadioMJ float64
	BusMJ   float64
	FrameMJ float64
	// Awake is the radio's cumulative non-doze time.
	Awake time.Duration
	// Window is the elapsed virtual time covered.
	Window time.Duration
}

// TotalMJ sums all components.
func (r Report) TotalMJ() float64 { return r.RadioMJ + r.BusMJ + r.FrameMJ }

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("energy{total=%.1fmJ radio=%.1f bus=%.1f frames=%.1f awake=%v/%v}",
		r.TotalMJ(), r.RadioMJ, r.BusMJ, r.FrameMJ, r.Awake.Round(time.Millisecond), r.Window.Round(time.Millisecond))
}

// Snapshot settles and returns the totals so far.
func (m *Meter) Snapshot() Report {
	m.settle()
	return Report{
		RadioMJ: m.radioEnergy,
		BusMJ:   m.busEnergy,
		FrameMJ: m.frameEnergy,
		Awake:   m.AwakeTime,
		Window:  m.sim.Now(),
	}
}
