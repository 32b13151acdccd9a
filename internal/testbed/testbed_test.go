package testbed

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/stats"
)

// pingRecord is one raw ICMP probe outcome (no app-runtime overhead; the
// tools package adds that).
type pingRecord struct {
	tou, tiu      time.Duration
	reqID, respID uint64
	ok            bool
}

// rawPingSeries fires n kernel-level pings at the given interval and
// waits for stragglers before returning.
func rawPingSeries(tb *Testbed, n int, interval time.Duration) []pingRecord {
	recs := make([]pingRecord, n)
	const icmpID = 0x55
	tb.Phone.Stack.OnICMP(icmpID, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) {
		i := int(ic.Seq)
		if i < len(recs) && !recs[i].ok {
			recs[i].tiu = at
			recs[i].respID = p.ID
			recs[i].ok = true
		}
	})
	for i := 0; i < n; i++ {
		i := i
		tb.Sim.PostAt(time.Duration(i)*interval+10*time.Millisecond, func() {
			recs[i].tou = tb.Sim.Now()
			req := tb.Phone.Stack.SendEcho(ServerIP, icmpID, uint16(i), 56)
			recs[i].reqID = req.ID
		})
	}
	tb.Sim.RunUntil(time.Duration(n)*interval + 2*time.Second)
	tb.Phone.Stack.CloseICMP(icmpID)
	return recs
}

func collect(tb *Testbed, recs []pingRecord) (du, dk, dn stats.Sample) {
	m := tb.MergedCapture()
	for _, r := range recs {
		if !r.ok {
			continue
		}
		if r.tiu > r.tou {
			du = append(du, r.tiu-r.tou)
		}
		l := tb.ExtractRTTs(m, r.reqID, r.respID)
		if l.DkOK {
			dk = append(dk, l.Dk)
		}
		if l.DnOK {
			dn = append(dn, l.Dn)
		}
	}
	return
}

func TestAssemblySanity(t *testing.T) {
	tb := New(DefaultConfig())
	tb.Sim.RunUntil(time.Second)
	beacons := 0
	for _, r := range tb.MergedCapture().Records() {
		if r.Frame.Dot11().IsBeacon() {
			beacons++
		}
	}
	if beacons < 8 {
		t.Fatalf("beacons = %d", beacons)
	}
	// Sniffers must have heard the beacons.
	if len(tb.MergedCapture().Records()) < 8 {
		t.Fatalf("sniffers captured %d frames", len(tb.MergedCapture().Records()))
	}
}

func TestFastIntervalPingMatchesEmulatedRTT(t *testing.T) {
	// Table 2, Nexus 5 @ 30ms / 10ms interval: du ≈ 33.4ms, dn ≈ 31.2ms.
	cfg := DefaultConfig()
	cfg.Seed = 42
	tb := New(cfg)
	recs := rawPingSeries(tb, 100, 10*time.Millisecond)
	du, _, dn := collect(tb, recs)
	if len(du) < 95 {
		t.Fatalf("only %d pings completed", len(du))
	}
	duM, dnM := stats.Millis(du.Mean()), stats.Millis(dn.Mean())
	if duM < 31 || duM > 36 {
		t.Errorf("du mean = %.2fms, want ≈33ms", duM)
	}
	if dnM < 30 || dnM > 33 {
		t.Errorf("dn mean = %.2fms, want ≈31ms", dnM)
	}
	if duM <= dnM {
		t.Errorf("du (%.2f) must exceed dn (%.2f)", duM, dnM)
	}
}

func TestSlowIntervalNexus5InflatesInternally(t *testing.T) {
	// Table 2, Nexus 5 @ 30ms / 1s interval: the SDIO wake inflates du
	// (≈43ms) while dn stays near the emulated value (Tip=205ms ≫ 30ms).
	cfg := DefaultConfig()
	cfg.Seed = 43
	tb := New(cfg)
	recs := rawPingSeries(tb, 60, time.Second)
	du, dk, dn := collect(tb, recs)
	if len(du) < 55 || len(dn) < 50 {
		t.Fatalf("samples: du=%d dn=%d", len(du), len(dn))
	}
	duM, dnM := stats.Millis(du.Mean()), stats.Millis(dn.Mean())
	if dnM < 30 || dnM > 34 {
		t.Errorf("dn mean = %.2fms, want ≈31.8ms (no PSM inflation)", dnM)
	}
	if duM-dnM < 8 || duM-dnM > 16 {
		t.Errorf("internal inflation du-dn = %.2fms, want ≈11.4ms (SDIO wake)", duM-dnM)
	}
	_ = dk
}

func TestSlowIntervalNexus4InflatesExternally(t *testing.T) {
	// Table 2, Nexus 4 @ 60ms / 1s interval: Tip=40ms < 60ms, so replies
	// are beacon-buffered: dn ≈ 130ms instead of 62ms.
	cfg := DefaultConfig()
	cfg.Seed = 44
	cfg.Phone = mustProfile("Google Nexus 4")
	cfg.EmulatedRTT = 60 * time.Millisecond
	tb := New(cfg)
	recs := rawPingSeries(tb, 60, time.Second)
	_, _, dn := collect(tb, recs)
	if len(dn) < 50 {
		t.Fatalf("dn samples = %d", len(dn))
	}
	dnM := stats.Millis(dn.Mean())
	if dnM < 95 || dnM > 160 {
		t.Errorf("dn mean = %.2fms, want ≈130ms (beacon-buffered)", dnM)
	}
}

func TestNexus4FastIntervalNotInflated(t *testing.T) {
	// Control: Nexus 4 @ 60ms / 10ms interval stays near 62ms.
	cfg := DefaultConfig()
	cfg.Seed = 45
	cfg.Phone = mustProfile("Google Nexus 4")
	cfg.EmulatedRTT = 60 * time.Millisecond
	tb := New(cfg)
	recs := rawPingSeries(tb, 100, 10*time.Millisecond)
	_, _, dn := collect(tb, recs)
	dnM := stats.Millis(dn.Mean())
	if dnM < 60 || dnM > 65 {
		t.Errorf("dn mean = %.2fms, want ≈62ms", dnM)
	}
}

func TestLayerOrderingInvariant(t *testing.T) {
	// du >= dk >= dn must hold per probe (each layer adds overhead).
	cfg := DefaultConfig()
	cfg.Seed = 46
	cfg.SnifferLoss = 0
	tb := New(cfg)
	recs := rawPingSeries(tb, 50, 100*time.Millisecond)
	m := tb.MergedCapture()
	for i, r := range recs {
		if !r.ok {
			continue
		}
		du := r.tiu - r.tou
		l := tb.ExtractRTTs(m, r.reqID, r.respID)
		if du <= 0 || !l.DkOK || !l.DnOK {
			t.Fatalf("probe %d missing layers: du %v, %+v", i, du, l)
		}
		if du < l.Dk {
			t.Fatalf("probe %d: du %v < dk %v", i, du, l.Dk)
		}
		if l.Dk < l.Dn {
			t.Fatalf("probe %d: dk %v < dn %v", i, l.Dk, l.Dn)
		}
	}
}

func TestCrossTrafficInflatesRTT(t *testing.T) {
	quiet := func() float64 {
		cfg := DefaultConfig()
		cfg.Seed = 47
		tb := New(cfg)
		recs := rawPingSeries(tb, 60, 50*time.Millisecond)
		du, _, _ := collect(tb, recs)
		return stats.Millis(du.Median())
	}()
	loaded := func() float64 {
		cfg := DefaultConfig()
		cfg.Seed = 47
		tb := New(cfg)
		tb.StartCrossTraffic()
		recs := rawPingSeries(tb, 60, 50*time.Millisecond)
		du, _, _ := collect(tb, recs)
		return stats.Millis(du.Median())
	}()
	if loaded <= quiet+1 {
		t.Fatalf("cross traffic did not inflate RTT: quiet %.2fms loaded %.2fms", quiet, loaded)
	}
}

func TestDisableBusSleepRemovesInternalInflation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 48
	cfg.DisableBusSleep = true
	tb := New(cfg)
	recs := rawPingSeries(tb, 40, time.Second)
	du, _, dn := collect(tb, recs)
	gap := stats.Millis(du.Mean()) - stats.Millis(dn.Mean())
	if gap > 5 {
		t.Fatalf("du-dn = %.2fms with bus sleep disabled, want < 5ms", gap)
	}
}

func TestDeterministicTestbedRuns(t *testing.T) {
	run := func() (float64, int) {
		cfg := DefaultConfig()
		cfg.Seed = 49
		tb := New(cfg)
		recs := rawPingSeries(tb, 20, 20*time.Millisecond)
		du, _, _ := collect(tb, recs)
		return stats.Millis(du.Mean()), len(tb.MergedCapture().Records())
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}
