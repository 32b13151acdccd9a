// Package mac implements the 802.11 station and access-point MAC layers,
// including the power-save machinery the paper identifies as the
// *external* source of delay inflation (§3.2.2): adaptive PSM with a
// phone-specific timeout (Tip), beacon-synchronised wake-ups, TIM
// parsing, and PS-Poll retrieval of AP-buffered frames.
package mac

import (
	"fmt"
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// PowerState is the station's power-management state.
type PowerState int

// Power states. CAM (constantly-awake mode) is the active state; in Doze
// the receiver is off; Listen is the brief beacon-reception window.
const (
	StateCAM PowerState = iota
	StateDoze
	StateListen
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case StateCAM:
		return "CAM"
	case StateDoze:
		return "doze"
	case StateListen:
		return "listen"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// BeaconSchedule exposes the AP's TBTT arithmetic; stations use it the
// way real hardware uses TSF synchronisation.
type BeaconSchedule interface {
	// NextTBTT returns the first beacon target time strictly after t.
	NextTBTT(t time.Duration) time.Duration
	// BeaconInterval returns the beacon period.
	BeaconInterval() time.Duration
}

// STAConfig carries the per-phone PSM parameters of the paper's Table 4.
type STAConfig struct {
	MAC   packet.MACAddr
	IP    packet.IPv4Addr
	BSSID packet.MACAddr
	AID   uint16

	// PSMEnabled turns adaptive PSM on. With it off the station stays in
	// CAM forever (the radio never dozes).
	PSMEnabled bool
	// PSMTimeout is Tip: how long the station remains in CAM after the
	// last activity before dozing (40 ms on Nexus 4 … 400 ms on HTC One).
	PSMTimeout time.Duration
	// PSMTimeoutJitter models firmware timer quantisation: each re-arm
	// draws the effective timeout uniformly from Tip ± jitter. This is
	// what lets a 30 ms-RTT response occasionally find the Nexus 4
	// already dozing even though Tip ≈ 40 ms (§3.1, Table 2).
	PSMTimeoutJitter time.Duration
	// ListenInterval is the number of beacon periods between wake-ups
	// while dozing. The paper finds all phones actually use every beacon
	// (wire value 0 ⇒ interval 1); the associated value (1 or 10) is kept
	// for the Table 4 report.
	ListenInterval      int
	AssocListenInterval int
	// BeaconMissProb is the probability that a dozing station fails to
	// act on a TIM in time (wake-up races near the TBTT), paying one
	// extra beacon interval. Calibrated against Table 2's Nexus 4 row.
	BeaconMissProb float64
	// BeaconGuard is how long before TBTT the radio powers up to listen.
	BeaconGuard time.Duration
}

// DefaultSTAConfig returns a generic enabled-PSM configuration.
func DefaultSTAConfig() STAConfig {
	return STAConfig{
		PSMEnabled:          true,
		PSMTimeout:          200 * time.Millisecond,
		PSMTimeoutJitter:    20 * time.Millisecond,
		ListenInterval:      1,
		AssocListenInterval: 1,
		BeaconMissProb:      0.1,
		BeaconGuard:         time.Millisecond,
	}
}

// STAStats counts station-side power events.
type STAStats struct {
	Dozes          uint64
	Wakes          uint64
	BeaconsHeard   uint64
	BeaconsMissed  uint64
	PSPollsSent    uint64
	FramesSent     uint64
	FramesReceived uint64
	NullDataSent   uint64
}

// STA is a station MAC with adaptive PSM. The WNIC driver sits above it
// (SendUp/Send), the shared medium below.
type STA struct {
	sim *simtime.Sim
	med *medium.Medium
	cfg STAConfig
	fac *packet.Factory
	tr  *trace.Trace

	state    PowerState
	camTimer *simtime.Timer
	schedule BeaconSchedule
	// wake is the one pending radio deadline while the station is out
	// of CAM; wakeFor names what it does when it fires.
	wake    *simtime.Timer
	wakeFor wakeKind
	// expectMore tracks an in-progress PS-Poll retrieval.
	expectMore bool

	seq    uint16
	recvUp func(*packet.Packet)

	// OnPowerState, when set, observes radio power transitions (energy
	// accounting).
	OnPowerState func(old, new PowerState)

	Stats STAStats
}

// setState transitions the power state, notifying observers.
func (s *STA) setState(next PowerState) {
	if s.state == next {
		return
	}
	old := s.state
	s.state = next
	if s.OnPowerState != nil {
		s.OnPowerState(old, next)
	}
}

// NewSTA creates a station and attaches it to the medium. recvUp receives
// inbound data frames (with the 802.11 header still attached). tr may be
// nil.
func NewSTA(sim *simtime.Sim, med *medium.Medium, cfg STAConfig, fac *packet.Factory, tr *trace.Trace, recvUp func(*packet.Packet)) *STA {
	s := &STA{sim: sim, med: med, cfg: cfg, fac: fac, tr: tr, recvUp: recvUp, state: StateCAM}
	s.camTimer = simtime.NewTimer(sim, s.onCAMTimeout)
	s.wake = simtime.NewTimer(sim, s.onWake)
	if cfg.PSMEnabled {
		s.armCAMTimer()
	}
	med.Attach(s)
	return s
}

// SetBeaconSchedule wires the AP's TBTT schedule (done at association).
func (s *STA) SetBeaconSchedule(b BeaconSchedule) { s.schedule = b }

// State returns the current power state.
func (s *STA) State() PowerState { return s.state }

// MAC implements medium.Station.
func (s *STA) MAC() packet.MACAddr { return s.cfg.MAC }

// RadioOn implements medium.Station: the receiver is powered unless the
// station dozes.
func (s *STA) RadioOn() bool { return s.state != StateDoze }

// effectiveTimeout draws this cycle's Tip with jitter.
func (s *STA) effectiveTimeout() time.Duration {
	j := s.cfg.PSMTimeoutJitter
	if j <= 0 {
		return s.cfg.PSMTimeout
	}
	d := simtime.Uniform{Lo: s.cfg.PSMTimeout - j, Hi: s.cfg.PSMTimeout + j}.Sample(s.sim)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (s *STA) armCAMTimer() {
	if !s.cfg.PSMEnabled {
		return
	}
	s.camTimer.Reset(s.effectiveTimeout())
}

// activity notes tx/rx activity: it promotes a dozing station to CAM and
// restarts the PSM timeout, the adaptive-PSM behaviour described in
// §3.2.2.
func (s *STA) activity() {
	if s.state != StateCAM {
		s.enterCAM()
	}
	s.armCAMTimer()
}

func (s *STA) enterCAM() {
	prev := s.state
	s.setState(StateCAM)
	s.cancelWake()
	s.expectMore = false
	if prev == StateDoze {
		s.Stats.Wakes++
	}
	s.tr.Addf(s.sim.Now(), "sta", "enter_CAM", "from=%s", prev)
}

func (s *STA) cancelWake() { s.wake.Stop() }

// wakeKind is what the station's wake timer does when it fires.
type wakeKind uint8

const (
	// wakeForBeacon powers the radio up ahead of a TBTT.
	wakeForBeacon wakeKind = iota
	// wakeBeaconMissed gives up on a beacon that never arrived.
	wakeBeaconMissed
	// wakePollLost gives up on a PS-Poll that was never answered.
	wakePollLost
)

// armWake cancels any pending wake deadline and arms a new one.
func (s *STA) armWake(d time.Duration, kind wakeKind) {
	s.wakeFor = kind
	s.wake.Reset(d)
}

func (s *STA) onWake() {
	switch s.wakeFor {
	case wakeForBeacon:
		s.onBeaconWake()
	case wakeBeaconMissed:
		if s.state == StateListen && !s.expectMore {
			s.Stats.BeaconsMissed++
			s.setState(StateDoze)
			s.scheduleBeaconWake(1)
		}
	case wakePollLost:
		if s.state == StateListen {
			s.expectMore = false
			s.setState(StateDoze)
			s.scheduleBeaconWake(1)
		}
	}
}

// onCAMTimeout fires when the station has been idle for Tip: it announces
// PSM with a null-data frame (PM=1) and dozes.
func (s *STA) onCAMTimeout() {
	if s.state != StateCAM {
		return
	}
	s.tr.Add(s.sim.Now(), "sta", "psm_timeout", "")
	null := s.fac.NewPacket(&packet.Dot11{
		Type: packet.Dot11Data, Subtype: packet.SubtypeNullData,
		ToDS: true, PwrMgmt: true,
		Addr1: s.cfg.BSSID, Addr2: s.cfg.MAC, Addr3: s.cfg.BSSID,
		Seq: s.nextSeq(),
	})
	s.Stats.NullDataSent++
	s.med.Transmit(s, null, false, func(medium.TxResult) {
		// Doze regardless of the null frame's fate; the AP may briefly
		// believe the station awake, in which case a delivery attempt
		// fails and the frame is re-buffered.
		if s.state == StateCAM && !s.camTimer.Armed() {
			s.enterDoze()
		}
	})
}

func (s *STA) enterDoze() {
	s.setState(StateDoze)
	s.Stats.Dozes++
	s.tr.Add(s.sim.Now(), "sta", "enter_doze", "")
	s.scheduleBeaconWake(1)
}

// scheduleBeaconWake arms the radio for the TBTT `intervals` beacon
// periods ahead (1 = next beacon).
func (s *STA) scheduleBeaconWake(intervals int) {
	if s.schedule == nil {
		return // not associated to a beaconing AP; sleeps forever
	}
	li := s.cfg.ListenInterval
	if li < 1 {
		li = 1
	}
	target := s.schedule.NextTBTT(s.sim.Now())
	for i := 1; i < intervals*li; i++ {
		target = s.schedule.NextTBTT(target)
	}
	wake := target - s.cfg.BeaconGuard
	if wake <= s.sim.Now() {
		wake = s.sim.Now()
	}
	s.armWake(wake-s.sim.Now(), wakeForBeacon)
}

func (s *STA) onBeaconWake() {
	if s.state != StateDoze {
		return
	}
	s.setState(StateListen)
	s.tr.Add(s.sim.Now(), "sta", "listen_for_beacon", "")
	// If no beacon arrives (lost to a collision), give up after half an
	// interval and doze to the next TBTT.
	s.armWake(s.cfg.BeaconGuard+s.beaconInterval()/2, wakeBeaconMissed)
}

func (s *STA) beaconInterval() time.Duration {
	if s.schedule != nil {
		return s.schedule.BeaconInterval()
	}
	return 102400 * time.Microsecond
}

func (s *STA) nextSeq() uint16 {
	s.seq = (s.seq + 1) & 0xfff
	return s.seq
}

// Send transmits an IP packet to the AP, wrapping it in an 802.11 data
// frame. Transmitting always counts as activity: the station exits doze
// immediately (PM=0 on the frame announces the wake-up to the AP). done
// may be nil.
func (s *STA) Send(ip *packet.Packet, done func(medium.TxResult)) {
	s.activity()
	ip.PushOuter(&packet.Dot11{
		Type: packet.Dot11Data, Subtype: packet.SubtypeData,
		ToDS:  true,
		Addr1: s.cfg.BSSID, Addr2: s.cfg.MAC, Addr3: s.cfg.BSSID,
		Seq: s.nextSeq(),
	})
	s.Stats.FramesSent++
	s.med.Transmit(s, ip, false, done)
}

// DeliverFrame implements medium.Station.
func (s *STA) DeliverFrame(p *packet.Packet) {
	d11 := p.Dot11()
	if d11 == nil {
		return
	}
	switch {
	case d11.IsBeacon():
		s.handleBeacon(p)
	case d11.Type == packet.Dot11Data && !d11.IsNullData():
		s.handleData(p)
	}
}

func (s *STA) handleBeacon(p *packet.Packet) {
	if s.state == StateDoze {
		return // radio off; medium should not have delivered, but guard anyway
	}
	b := p.Beacon()
	if b == nil {
		return
	}
	if s.state != StateListen {
		return // CAM stations don't act on TIM
	}
	s.Stats.BeaconsHeard++
	s.cancelWake()
	if !b.Buffered(s.cfg.AID) {
		s.setState(StateDoze)
		s.scheduleBeaconWake(1)
		return
	}
	// TIM says the AP holds frames for us. With BeaconMissProb the
	// station loses the race (wake-up latency, TIM decode) and pays one
	// more beacon interval — the tail that pushes the Nexus 4's 60 ms
	// row up to ~130 ms in Table 2.
	if s.sim.Rand().Float64() < s.cfg.BeaconMissProb {
		s.Stats.BeaconsMissed++
		s.tr.Add(s.sim.Now(), "sta", "tim_missed", "")
		s.setState(StateDoze)
		s.scheduleBeaconWake(1)
		return
	}
	s.sendPSPoll()
}

func (s *STA) sendPSPoll() {
	s.expectMore = true
	poll := s.fac.NewPacket(&packet.Dot11{
		Type: packet.Dot11Control, Subtype: packet.SubtypePSPoll,
		Addr1: s.cfg.BSSID, Addr2: s.cfg.MAC,
	})
	s.Stats.PSPollsSent++
	s.tr.Add(s.sim.Now(), "sta", "ps_poll", "")
	s.med.Transmit(s, poll, false, nil)
	// Guard against a lost poll or release frame: give up after half a
	// beacon interval and retry at the next TBTT.
	s.armWake(s.beaconInterval()/2, wakePollLost)
}

func (s *STA) handleData(p *packet.Packet) {
	d11 := p.Dot11()
	s.Stats.FramesReceived++
	if s.state == StateListen {
		// Buffered delivery during a PS retrieval window.
		s.cancelWake()
		if d11.MoreData {
			s.sendPSPoll()
		} else {
			s.expectMore = false
			s.setState(StateDoze)
			s.scheduleBeaconWake(1)
		}
	} else {
		// Normal CAM reception refreshes the PSM timeout.
		s.activity()
	}
	if s.recvUp != nil {
		s.recvUp(p)
	}
}
