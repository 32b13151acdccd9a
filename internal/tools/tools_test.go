package tools

import (
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/stats"
	"repro/internal/testbed"
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

func TestPingFastInterval(t *testing.T) {
	tb := newTB(1, "", 30*time.Millisecond)
	res := Ping(tb, PingOptions{Count: 50, Interval: 10 * time.Millisecond})
	if res.Sent != 50 {
		t.Fatalf("sent = %d", res.Sent)
	}
	s := res.Sample()
	if len(s) < 45 {
		t.Fatalf("completed %d/50", len(s))
	}
	m := stats.Millis(s.Mean())
	if m < 31 || m > 36 {
		t.Errorf("ping mean @10ms = %.2f, want ≈33ms (Table 2)", m)
	}
}

func TestPingSlowIntervalInflated(t *testing.T) {
	tb := newTB(2, "", 30*time.Millisecond)
	res := Ping(tb, PingOptions{Count: 40, Interval: time.Second})
	s := res.Sample()
	m := stats.Millis(s.Mean())
	// Nexus 5 @30ms/1s: du ≈ 43ms (Table 2).
	if m < 38 || m > 48 {
		t.Errorf("ping mean @1s = %.2f, want ≈43ms", m)
	}
}

func TestPingIntegerTruncationQuirk(t *testing.T) {
	// With a long emulated path every reported RTT exceeds 100ms and
	// must come back as whole milliseconds.
	tb := newTB(3, "", 120*time.Millisecond)
	res := Ping(tb, PingOptions{Count: 20, Interval: 50 * time.Millisecond})
	s := res.Sample()
	if len(s) < 15 {
		t.Fatalf("completed %d", len(s))
	}
	for _, v := range s {
		if v%time.Millisecond != 0 {
			t.Fatalf("reported RTT %v not integer-ms despite >100ms", v)
		}
	}
	// And the quirk can push the user RTT below the kernel RTT
	// (negative Δdu−k), as Fig 3(b)/(d) shows.
	duk := ExtractLayers(tb, tb.MergedCapture(), res.Records).DuK
	if len(duk) == 0 {
		t.Fatal("no Δdu−k samples")
	}
	neg := 0
	for _, d := range duk {
		if d < 0 {
			neg++
		}
	}
	if neg == 0 {
		t.Error("integer truncation never produced a negative Δdu−k")
	}
}

func TestHTTPing(t *testing.T) {
	tb := newTB(4, "", 30*time.Millisecond)
	res := HTTPing(tb, HTTPingOptions{Count: 30, Interval: 200 * time.Millisecond})
	s := res.Sample()
	if len(s) < 25 {
		t.Fatalf("completed %d/30", len(s))
	}
	m := stats.Millis(s.Mean())
	// One GET round trip on a 30ms path, paying wake costs at 200ms
	// intervals (bus asleep: +SDIO wake).
	if m < 31 || m > 55 {
		t.Errorf("httping mean = %.2fms", m)
	}
	if tb.Server.HTTPRequests.Load() < 25 {
		t.Errorf("server served %d requests", tb.Server.HTTPRequests.Load())
	}
}

func TestJavaPingSlowerThanNativePing(t *testing.T) {
	ping := func() float64 {
		tb := newTB(5, "", 30*time.Millisecond)
		res := Ping(tb, PingOptions{Count: 40, Interval: time.Second})
		return stats.Millis(res.Sample().Mean())
	}()
	jping := func() float64 {
		tb := newTB(5, "", 30*time.Millisecond)
		res := JavaPing(tb, JavaPingOptions{Count: 40, Interval: time.Second})
		return stats.Millis(res.Sample().Mean())
	}()
	if jping <= ping {
		t.Errorf("java ping (%.2fms) should exceed native ping (%.2fms): DVM overhead", jping, ping)
	}
}

func TestJavaPingGetsRSTs(t *testing.T) {
	tb := newTB(6, "", 20*time.Millisecond)
	res := JavaPing(tb, JavaPingOptions{Count: 20, Interval: 100 * time.Millisecond})
	if len(res.Sample()) < 17 {
		t.Fatalf("completed %d/20 SYN-RST probes", len(res.Sample()))
	}
}

func TestPing2ShortPathAccurate(t *testing.T) {
	// ping2's claim: for short nRTT the second ping finds the phone
	// still awake, so its RTT is close to the network value.
	tb := newTB(7, "", 20*time.Millisecond)
	tb.Sim.RunUntil(500 * time.Millisecond) // let the phone doze first
	res := Ping2(tb, Ping2Options{Rounds: 40, Gap: time.Second})
	s := res.Sample()
	if len(s) < 30 {
		t.Fatalf("completed %d rounds", len(s))
	}
	med := stats.Millis(s.Median())
	if med < 19 || med > 28 {
		t.Errorf("ping2 median on 20ms path = %.2fms, want ≈21-25ms", med)
	}
}

func TestPing2LongPathStillInflated(t *testing.T) {
	// The paper's criticism: when nRTT exceeds the demotion timers the
	// device is asleep again by the time the second ping arrives.
	short := func() float64 {
		tb := newTB(8, "Google Nexus 4", 20*time.Millisecond)
		tb.Sim.RunUntil(500 * time.Millisecond)
		res := Ping2(tb, Ping2Options{Rounds: 30, Gap: time.Second})
		return stats.Millis(res.Sample().Median()) - 20
	}()
	long := func() float64 {
		tb := newTB(8, "Google Nexus 4", 80*time.Millisecond) // > Tip=40ms
		tb.Sim.RunUntil(500 * time.Millisecond)
		res := Ping2(tb, Ping2Options{Rounds: 30, Gap: time.Second})
		return stats.Millis(res.Sample().Median()) - 80
	}()
	if long <= short+5 {
		t.Errorf("ping2 inflation: short-path %+.2fms, long-path %+.2fms — long should be much worse", short, long)
	}
}

func TestLayerSamplesConsistent(t *testing.T) {
	tb := newTB(9, "", 30*time.Millisecond)
	res := Ping(tb, PingOptions{Count: 30, Interval: 20 * time.Millisecond})
	du, dk, dn := LayerSamples(tb, *res)
	if len(du) == 0 || len(dk) == 0 || len(dn) == 0 {
		t.Fatalf("layer samples missing: du=%d dk=%d dn=%d", len(du), len(dk), len(dn))
	}
	if du.Mean() < dk.Mean() || dk.Mean() < dn.Mean() {
		t.Errorf("layer ordering violated: du=%v dk=%v dn=%v", du.Mean(), dk.Mean(), dn.Mean())
	}
}

func TestToolsDontLeakAcrossRuns(t *testing.T) {
	tb := newTB(10, "", 20*time.Millisecond)
	a := Ping(tb, PingOptions{Count: 10, Interval: 10 * time.Millisecond, ID: 0x1})
	b := Ping(tb, PingOptions{Count: 10, Interval: 10 * time.Millisecond, ID: 0x2})
	if len(a.Sample()) < 8 || len(b.Sample()) < 8 {
		t.Fatalf("sequential runs interfered: %d, %d", len(a.Sample()), len(b.Sample()))
	}
}

func TestHTTPingConnectOnly(t *testing.T) {
	tb := newTB(40, "", 30*time.Millisecond)
	res := HTTPing(tb, HTTPingOptions{Count: 20, Interval: 100 * time.Millisecond, ConnectOnly: true})
	s := res.Sample()
	if len(s) < 18 {
		t.Fatalf("completed %d/20", len(s))
	}
	m := stats.Millis(s.Mean())
	// One SYN/SYN-ACK round trip on a 30ms path plus wake costs at a
	// 100ms interval (bus asleep for each probe).
	if m < 30 || m > 50 {
		t.Errorf("connect-only mean = %.2fms", m)
	}
	if res.Tool != "httping -r" {
		t.Errorf("tool label = %q", res.Tool)
	}
}
