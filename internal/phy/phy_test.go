package phy

import (
	"testing"
	"testing/quick"
	"time"
)

// ofdmRates is the 802.11g OFDM rate set, in Mbps.
var ofdmRates = []Rate{6, 9, 12, 18, 24, 36, 48, 54}

func TestDIFS(t *testing.T) {
	p := Default80211g()
	if got := p.DIFS(); got != 28*time.Microsecond {
		t.Fatalf("DIFS = %v, want 28µs", got)
	}
}

func TestAirtimeKnownValues(t *testing.T) {
	p := Default80211g()
	// 1500B at 54 Mbps: 22+12000 bits over 216-bit symbols = 56 symbols
	// (55.657 → 56) = 224µs, plus 20µs preamble + 6µs ext = 250µs.
	if got := p.Airtime(1500, 54); got != 250*time.Microsecond {
		t.Errorf("airtime(1500B@54) = %v, want 250µs", got)
	}
	// 14B ACK at 24 Mbps: 22+112=134 bits over 96-bit symbols = 2 symbols
	// = 8µs + 26µs = 34µs.
	if got := p.AckTime(); got != 34*time.Microsecond {
		t.Errorf("ack time = %v, want 34µs", got)
	}
}

func TestAirtimeMonotoneInSize(t *testing.T) {
	p := Default80211g()
	prev := time.Duration(0)
	for size := 0; size <= 2000; size += 50 {
		at := p.Airtime(size, p.DataRate)
		if at < prev {
			t.Fatalf("airtime decreased at %dB: %v < %v", size, at, prev)
		}
		prev = at
	}
}

func TestAirtimeDecreasesWithRate(t *testing.T) {
	p := Default80211g()
	rates := ofdmRates
	prev := time.Duration(1 << 62)
	for _, r := range rates {
		at := p.Airtime(1000, r)
		if at > prev {
			t.Fatalf("airtime increased with rate %g: %v > %v", float64(r), at, prev)
		}
		prev = at
	}
}

func TestZeroRateFallsBackToDataRate(t *testing.T) {
	p := Default80211g()
	if p.Airtime(100, 0) != p.Airtime(100, p.DataRate) {
		t.Fatal("zero rate did not fall back to data rate")
	}
}

// Property: airtime is always at least preamble + one symbol + signal
// extension, and grows without bound.
func TestQuickAirtimeBounds(t *testing.T) {
	p := Default80211g()
	f := func(size uint16, rateIdx uint8) bool {
		rates := ofdmRates
		r := rates[int(rateIdx)%len(rates)]
		at := p.Airtime(int(size), r)
		min := p.Preamble + 4*time.Microsecond + p.SignalExt
		if at < min {
			return false
		}
		// upper bound: bits/rate plus one symbol of rounding and overheads
		upper := time.Duration(float64(22+8*int(size))/float64(r)*1000)*time.Nanosecond +
			p.Preamble + p.SignalExt + 4*time.Microsecond
		return at <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
