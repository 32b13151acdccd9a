package core

import (
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tools"
)

func newTB(seed int64, phone string, rtt time.Duration) *testbed.Testbed {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	if phone != "" {
		p, ok := android.ProfileByName(phone)
		if !ok {
			panic("unknown phone " + phone)
		}
		cfg.Phone = p
	}
	cfg.EmulatedRTT = rtt
	return testbed.New(cfg)
}

func TestHeadlineResultMedianOverheadUnder3ms(t *testing.T) {
	// The paper's abstract: "the overall median delay overheads can be
	// kept within 3ms, regardless of the actual network delay."
	for _, rtt := range []time.Duration{20, 50, 85, 135} {
		rtt := rtt * time.Millisecond
		tb := newTB(100+int64(rtt), "", rtt)
		tb.Sim.RunUntil(300 * time.Millisecond) // phone idles (and dozes) first
		mon := New(tb, Config{K: 100})
		res := mon.Run()
		if len(res.Sample()) < 95 {
			t.Fatalf("rtt=%v: completed %d/100", rtt, len(res.Sample()))
		}
		duk, dkn := OverheadStats(tb, res)
		total := stats.Millis(duk.Median()) + stats.Millis(dkn.Median())
		if total > 3 {
			t.Errorf("rtt=%v: median overhead %.2fms, want < 3ms", rtt, total)
		}
		// And the measured RTT tracks the emulated value.
		med := stats.Millis(res.Sample().Median())
		want := stats.Millis(rtt)
		if med < want || med > want+5 {
			t.Errorf("rtt=%v: median RTT %.2fms", rtt, med)
		}
	}
}

func TestPhoneStaysAwakeDuringMeasurement(t *testing.T) {
	tb := newTB(2, "Google Nexus 4", 135*time.Millisecond) // Tip=40ms!
	tb.Sim.RunUntil(300 * time.Millisecond)
	dozesBefore := tb.Phone.STA.Stats.Dozes
	mon := New(tb, Config{K: 50})
	res := mon.Run()
	if got := tb.Phone.STA.Stats.Dozes - dozesBefore; got != 0 {
		t.Errorf("phone dozed %d times during AcuteMon", got)
	}
	if bus := tb.Phone.Drv.Bus(); bus.Asleep() && res.Finished > 0 {
		// The bus may sleep again after the run, but overhead during the
		// run is what matters; verified via the samples below.
		_ = bus
	}
	med := stats.Millis(res.Sample().Median())
	// Nexus 4, 135ms path: without AcuteMon this inflates beyond 200ms
	// (Table 2's pattern); with it the median must sit near 135.
	if med < 135 || med > 141 {
		t.Errorf("median RTT = %.2fms, want ≈136-140", med)
	}
}

func TestBackgroundTrafficVolumeMatchesPaperExample(t *testing.T) {
	// §4.1: K=5 probes on a 100ms path ⇒ ~25 background packets.
	tb := newTB(3, "", 100*time.Millisecond)
	mon := New(tb, Config{K: 5})
	res := mon.Run()
	if res.BackgroundSent < 15 || res.BackgroundSent > 40 {
		t.Errorf("background packets = %d, want ≈25", res.BackgroundSent)
	}
	if res.WarmupsSent != 1 {
		t.Errorf("warmups = %d", res.WarmupsSent)
	}
}

func TestBackgroundTrafficDiesAtGateway(t *testing.T) {
	tb := newTB(4, "", 30*time.Millisecond)
	mon := New(tb, Config{K: 20})
	res := mon.Run()
	if tb.Wired.Stats.DroppedTTL.Load() < uint64(res.BackgroundSent) {
		t.Errorf("gateway dropped %d, want >= %d (all BT packets)",
			tb.Wired.Stats.DroppedTTL.Load(), res.BackgroundSent)
	}
	// Nothing TTL=1 may reach the measurement or load servers.
	if tb.Server.Stack.DroppedNoDemux > 0 {
		t.Errorf("server saw %d stray packets", tb.Server.Stack.DroppedNoDemux)
	}
}

func TestAllProbeTypes(t *testing.T) {
	for _, pt := range []ProbeType{ProbeTCPSyn, ProbeHTTPGet, ProbeUDPEcho, ProbeICMPEcho} {
		tb := newTB(5, "", 30*time.Millisecond)
		mon := New(tb, Config{K: 20, Probe: pt})
		res := mon.Run()
		s := res.Sample()
		if len(s) < 18 {
			t.Errorf("%v: completed %d/20", pt, len(s))
			continue
		}
		med := stats.Millis(s.Median())
		if med < 29 || med > 37 {
			t.Errorf("%v: median = %.2fms, want ≈30-33ms", pt, med)
		}
	}
}

func TestAcuteMonBeatsDefaultIntervalPing(t *testing.T) {
	// The Fig 8 contrast in miniature: same path, AcuteMon vs 1s ping.
	tbA := newTB(6, "", 30*time.Millisecond)
	tbA.Sim.RunUntil(300 * time.Millisecond)
	resA := New(tbA, Config{K: 60}).Run()
	acute := stats.Millis(resA.Sample().Median())

	tbP := newTB(6, "", 30*time.Millisecond)
	resP := tools.Ping(tbP, tools.PingOptions{Count: 60, Interval: time.Second})
	ping := stats.Millis(resP.Sample().Median())

	if acute >= ping-5 {
		t.Errorf("AcuteMon median %.2fms vs ping %.2fms: want ≥5ms gap", acute, ping)
	}
}

func TestOverheadIndependentOfRTT(t *testing.T) {
	// §4.2.2: "the delay overheads for AcuteMon are independent of
	// nRTTs" — compare medians at 20ms and 135ms.
	med := func(rtt time.Duration, seed int64) float64 {
		tb := newTB(seed, "", rtt)
		res := New(tb, Config{K: 80}).Run()
		duk, dkn := OverheadStats(tb, res)
		return stats.Millis(duk.Median()) + stats.Millis(dkn.Median())
	}
	short := med(20*time.Millisecond, 7)
	long := med(135*time.Millisecond, 8)
	diff := long - short
	if diff < 0 {
		diff = -diff
	}
	if diff > 1.5 {
		t.Errorf("overhead varies with RTT: %.2fms vs %.2fms", short, long)
	}
}

func TestFig6TimelineTrace(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.Seed = 9
	cfg.TraceCap = 100000
	tb := testbed.New(cfg)
	mon := New(tb, Config{K: 3})
	mon.Run()
	for _, want := range []string{"warmup_send", "measurement_start", "background_send", "probe_send", "probe_done", "stopped"} {
		if _, ok := tb.Trace.Find(want, 0); !ok {
			t.Errorf("Fig 6 trace missing %q", want)
		}
	}
	// The warm-up must precede the first probe by ≈dpre.
	w, _ := tb.Trace.Find("warmup_send", 0)
	p, ok := tb.Trace.Find("probe_send", 0)
	if !ok {
		t.Fatal("no probe_send event")
	}
	if gap := p.At - w.At; gap < 19*time.Millisecond || gap > 25*time.Millisecond {
		t.Errorf("warmup→probe gap = %v, want ≈dpre (20ms)", gap)
	}
}

func TestDefaultsFilled(t *testing.T) {
	tb := newTB(10, "", 20*time.Millisecond)
	mon := New(tb, Config{})
	cfg := mon.cfg
	if cfg.K != 100 || cfg.WarmupDelay != 20*time.Millisecond ||
		cfg.BackgroundInterval != 20*time.Millisecond || cfg.BackgroundTTL != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
