package core

import (
	"time"

	"repro/internal/android"
	"repro/internal/packet"
	"repro/internal/puncture"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Calibration is the result of the training procedure the paper lists
// as future work (§4.1): inferring a phone's demotion timers so dpre and
// db can be chosen as Tprom < dpre < min(Tis, Tip), db < min(Tis, Tip).
type Calibration struct {
	// Tip is the estimated PSM timeout (Table 4's measurement).
	Tip time.Duration
	// TipSamples are the per-round observations behind Tip.
	TipSamples stats.Sample
	// Tis is the estimated bus-sleep idle period (0 when undetectable,
	// e.g. with bus sleep disabled).
	Tis time.Duration
	// RecommendedWarmup / RecommendedInterval are safe dpre / db values.
	RecommendedWarmup   time.Duration
	RecommendedInterval time.Duration
}

// CalibrateOptions tunes the training procedure.
type CalibrateOptions struct {
	// TipRounds is the number of PSM-timeout observations (default 8).
	TipRounds int
	// TisMax bounds the bus-sleep sweep (default 150 ms).
	TisMax time.Duration
	// TisStep is the sweep granularity (default 10 ms).
	TisStep time.Duration
	// PairsPerGap is the probe pairs measured per sweep point (default 6).
	PairsPerGap int
}

func (o *CalibrateOptions) fill() {
	if o.TipRounds <= 0 {
		o.TipRounds = 8
	}
	if o.TisMax <= 0 {
		o.TisMax = 150 * time.Millisecond
	}
	if o.TisStep <= 0 {
		o.TisStep = 10 * time.Millisecond
	}
	if o.PairsPerGap <= 0 {
		o.PairsPerGap = 6
	}
}

// Calibrate runs the training procedure on the testbed phone and drives
// the simulation to completion. It needs only unprivileged observations:
// the sniffers for Tip (watching for the PM=1 null frame, which is how
// the paper measured Table 4) and user-level RTT knees for Tis.
func Calibrate(tb *testbed.Testbed, opts CalibrateOptions) Calibration {
	opts.fill()
	cal := Calibration{}
	cal.TipSamples = estimateTip(tb, opts)
	if len(cal.TipSamples) > 0 {
		cal.Tip = cal.TipSamples.Median()
	}
	cal.Tis = estimateTis(tb, opts)

	min := cal.Tip
	if cal.Tis > 0 && cal.Tis < min {
		min = cal.Tis
	}
	if min <= 0 {
		min = 40 * time.Millisecond // conservative fallback
	}
	rec := min / 2
	if rec < 5*time.Millisecond {
		rec = 5 * time.Millisecond
	}
	if rec > 50*time.Millisecond {
		rec = 50 * time.Millisecond
	}
	cal.RecommendedWarmup = rec
	cal.RecommendedInterval = rec
	return cal
}

// estimateTip sends one TTL=1 packet per round (so no response resets
// the timers) and measures, on the sniffer capture, the time from the
// packet's air appearance to the phone's PM=1 null-data frame.
func estimateTip(tb *testbed.Testbed, opts CalibrateOptions) stats.Sample {
	phone := tb.Phone
	sock, err := phone.Stack.OpenUDP(0)
	if err != nil {
		return nil
	}
	defer sock.Close()

	var samples stats.Sample
	// Rounds must be separated by more than any plausible Tip.
	const gap = 800 * time.Millisecond
	type round struct{ pktID uint64 }
	rounds := make([]round, opts.TipRounds)
	for i := 0; i < opts.TipRounds; i++ {
		i := i
		tb.Sim.Post(time.Duration(i+1)*gap, func() {
			p := sock.SendTo(testbed.WarmupIP, 33434, []byte{0xCA}, 1)
			rounds[i].pktID = p.ID
		})
	}
	tb.Sim.RunFor(time.Duration(opts.TipRounds+2) * gap)

	// Post-process the merged capture: for each round packet, find the
	// next PM=1 null-data frame from the phone. The capture is in time
	// order and so are the rounds (one gap apart), so one pointer walks
	// the nulls forward across all rounds.
	merged := tb.MergedCapture()
	var nulls []time.Duration
	for _, r := range merged.Records() {
		d11 := r.Frame.Dot11()
		if d11 != nil && d11.IsNullData() && d11.PwrMgmt && d11.Addr2 == phone.MACAddr {
			nulls = append(nulls, r.Timestamp())
		}
	}
	next := 0
	for _, rd := range rounds {
		ton, ok := merged.TimeOf(rd.pktID)
		if !ok {
			continue
		}
		for next < len(nulls) && nulls[next] <= ton {
			next++
		}
		if next < len(nulls) && nulls[next]-ton < gap {
			samples = append(samples, nulls[next]-ton)
		}
	}
	return samples
}

// estimateTis sweeps the idle gap before a probe pair and finds the knee
// where the first probe's RTT jumps above the second's: that jump is the
// bus wake cost appearing once the gap exceeds Tis.
func estimateTis(tb *testbed.Testbed, opts CalibrateOptions) time.Duration {
	phone := tb.Phone
	type gapStat struct {
		gap  time.Duration
		diff stats.Sample
	}
	var sweeps []gapStat

	measurePair := func(onDone func(first, second time.Duration)) {
		var firstRTT time.Duration
		probe := func(done func(rtt time.Duration)) {
			start := tb.Sim.Now()
			finished := false
			conn := phone.Stack.Dial(testbed.ServerIP, 80)
			conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
				if finished {
					return
				}
				finished = true
				conn.Close()
				done(at - start)
			}
			tb.Sim.Post(2*time.Second, func() {
				if !finished {
					finished = true
					done(-1)
				}
			})
		}
		probe(func(rtt1 time.Duration) {
			firstRTT = rtt1
			probe(func(rtt2 time.Duration) { onDone(firstRTT, rtt2) })
		})
	}

	for g := opts.TisStep; g <= opts.TisMax; g += opts.TisStep {
		gs := gapStat{gap: g}
		for i := 0; i < opts.PairsPerGap; i++ {
			doneCh := false
			// Idle for the gap, then fire a pair.
			tb.Sim.RunFor(g)
			measurePair(func(first, second time.Duration) {
				if first > 0 && second > 0 {
					gs.diff = append(gs.diff, first-second)
				}
				doneCh = true
			})
			for !doneCh && tb.Sim.Step() {
			}
		}
		sweeps = append(sweeps, gs)
	}

	// Knee detection: adaptive threshold at half the maximum median
	// inflation.
	var maxMed time.Duration
	for _, gs := range sweeps {
		if m := gs.diff.Median(); m > maxMed {
			maxMed = m
		}
	}
	if maxMed < 1500*time.Microsecond {
		return 0 // no detectable bus-sleep penalty
	}
	for _, gs := range sweeps {
		if gs.diff.Median() > maxMed/2 {
			// The probe that paid the wake had been idle for roughly the
			// gap plus the previous pair's tail; report the gap itself.
			return gs.gap
		}
	}
	return 0
}

// CalibrateInto runs the calibration procedure on the testbed's phone
// and records the result in the device-knowledge store under the
// phone's model. The simulation runs outside any lock; only the final
// record synchronizes.
func CalibrateInto(st *puncture.Store, tb *testbed.Testbed, opts CalibrateOptions) (puncture.CalEntry, error) {
	cal := Calibrate(tb, opts)
	e := puncture.CalEntry{
		Model:    tb.Phone.Profile.Model,
		Chipset:  tb.Phone.Profile.Chipset,
		Tip:      cal.Tip,
		Tis:      cal.Tis,
		Warmup:   cal.RecommendedWarmup,
		Interval: cal.RecommendedInterval,
		Samples:  len(cal.TipSamples),
	}
	return e, st.RecordCalibration(e)
}

// effectiveMinTimer is a helper used by tests to cross-check the
// calibration against the phone's configured timers.
func effectiveMinTimer(phone *android.Phone) time.Duration {
	tip := phone.Profile.PSMTimeout
	tis := phone.Drv.Bus().IdlePeriod()
	if tis < tip {
		return tis
	}
	return tip
}
