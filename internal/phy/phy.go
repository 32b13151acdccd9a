// Package phy models IEEE 802.11g (ERP-OFDM) physical-layer timing: data
// rates, inter-frame spacings, and per-frame airtime. The medium and MAC
// layers use these figures to decide how long each frame occupies the
// channel, which in turn determines how badly the paper's iPerf cross
// traffic congests the testbed (§4.3).
package phy

import (
	"fmt"
	"time"
)

// Rate is a PHY data rate in Mbps.
type Rate float64

// Rate24 is the 802.11g OFDM rate the testbed runs data and control
// frames at (see Params.DataRate).
const Rate24 Rate = 24

// Params collects the 802.11g timing constants.
type Params struct {
	// DataRate is the rate for data frames. The default is 24 Mbps: the
	// paper's testbed (phones ~0.5 m from a WNDR3800 in a live office
	// band) sustained only ~10 Mbps of UDP goodput, which matches a
	// mid-table operating rate far better than the nominal 54 Mbps.
	DataRate Rate
	// ControlRate is used for ACK, PS-Poll, and beacon frames.
	ControlRate Rate
	// SlotTime is the contention slot (short slot, 9 µs).
	SlotTime time.Duration
	// SIFS separates a data frame from its ACK.
	SIFS time.Duration
	// CWmin/CWmax bound the contention window (in slots).
	CWmin, CWmax int
	// Preamble is the OFDM PLCP preamble + SIGNAL duration.
	Preamble time.Duration
	// SignalExt is the 802.11g signal-extension time appended to OFDM
	// transmissions.
	SignalExt time.Duration
}

// Default80211g returns the parameter set used by the simulated testbed.
func Default80211g() Params {
	return Params{
		DataRate:    Rate24,
		ControlRate: Rate24,
		SlotTime:    9 * time.Microsecond,
		SIFS:        10 * time.Microsecond,
		CWmin:       15,
		CWmax:       1023,
		Preamble:    20 * time.Microsecond,
		SignalExt:   6 * time.Microsecond,
	}
}

// DIFS is SIFS + 2 slots.
func (p Params) DIFS() time.Duration { return p.SIFS + 2*p.SlotTime }

// Airtime returns the channel occupancy of a frame of the given size at
// the given rate: preamble + OFDM symbols (16 service bits + 6 tail bits
// + payload) + signal extension.
func (p Params) Airtime(bytes int, rate Rate) time.Duration {
	if rate <= 0 {
		rate = p.DataRate
	}
	bitsPerSymbol := float64(rate) * 4 // 4 µs symbols
	bits := 16 + 6 + 8*bytes
	symbols := (float64(bits) + bitsPerSymbol - 1) / bitsPerSymbol
	return p.Preamble + time.Duration(int(symbols))*4*time.Microsecond + p.SignalExt
}

// AckTime is the airtime of a 14-byte ACK at the control rate.
func (p Params) AckTime() time.Duration { return p.Airtime(14, p.ControlRate) }

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("802.11g{data=%gMbps ctl=%gMbps slot=%v sifs=%v}",
		float64(p.DataRate), float64(p.ControlRate), p.SlotTime, p.SIFS)
}
