package live

import (
	"context"
	"testing"
	"time"
)

func startTestServers(t *testing.T) *Servers {
	t.Helper()
	s, err := StartServers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestTCPConnectProbes(t *testing.T) {
	s := startTestServers(t)
	res, err := Measure(context.Background(), Config{
		Target: s.Addr(), Probe: ProbeTCPConnect, K: 8,
		WarmupDelay: 5 * time.Millisecond, BackgroundInterval: 5 * time.Millisecond,
		WarmupAddr: s.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sample()); got != 8 {
		t.Fatalf("completed %d/8 probes (lost %d)", got, res.Lost)
	}
	for _, rec := range res.Records {
		if rec.RTT <= 0 || rec.RTT > time.Second {
			t.Fatalf("probe %d rtt = %v", rec.Seq, rec.RTT)
		}
	}
	if res.BackgroundSent < 2 {
		t.Fatalf("background packets = %d", res.BackgroundSent)
	}
	// The kernel completes a handshake before the server's accept loop
	// counts it; give the loop time to catch up with the last connect.
	_, _, conns := s.Stats()
	for deadline := time.Now().Add(2 * time.Second); conns < 8 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		_, _, conns = s.Stats()
	}
	if conns != 8 {
		t.Fatalf("server saw %d connections", conns)
	}
}

func TestHTTPGetProbes(t *testing.T) {
	s := startTestServers(t)
	res, err := Measure(context.Background(), Config{
		Target: s.Addr(), Probe: ProbeHTTPGet, K: 6,
		WarmupDelay: 5 * time.Millisecond, BackgroundInterval: 10 * time.Millisecond,
		WarmupAddr: s.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sample()); got != 6 {
		t.Fatalf("completed %d/6 (lost %d)", got, res.Lost)
	}
	reqs, _, conns := s.Stats()
	if reqs != 6 {
		t.Fatalf("server served %d GETs", reqs)
	}
	if conns != 1 {
		t.Fatalf("persistent prober opened %d connections, want 1", conns)
	}
}

func TestUDPEchoProbes(t *testing.T) {
	s := startTestServers(t)
	res, err := Measure(context.Background(), Config{
		Target: s.Addr(), Probe: ProbeUDPEcho, K: 6,
		WarmupDelay: 5 * time.Millisecond, BackgroundInterval: 10 * time.Millisecond,
		WarmupAddr: s.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sample()); got != 6 {
		t.Fatalf("completed %d/6 (lost %d)", got, res.Lost)
	}
}

func TestNoBackgroundMode(t *testing.T) {
	s := startTestServers(t)
	res, err := Measure(context.Background(), Config{
		Target: s.Addr(), Probe: ProbeTCPConnect, K: 3, NoBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BackgroundSent != 0 {
		t.Fatalf("background packets = %d with NoBackground", res.BackgroundSent)
	}
	if len(res.Sample()) != 3 {
		t.Fatalf("completed %d/3", len(res.Sample()))
	}
}

func TestContextCancellation(t *testing.T) {
	s := startTestServers(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Measure(ctx, Config{Target: s.Addr(), Probe: ProbeTCPConnect, K: 100})
	if err == nil {
		t.Fatal("cancelled measurement returned no error")
	}
	if len(res.Records) == 100 {
		t.Fatal("cancelled measurement ran to completion")
	}
}

func TestProbeFailureOnClosedPort(t *testing.T) {
	// Find a port that is certainly closed: bind, record, release.
	s := startTestServers(t)
	addr := s.Addr()
	s.Close()
	res, err := Measure(context.Background(), Config{
		Target: addr, Probe: ProbeTCPConnect, K: 2,
		ProbeTimeout: 200 * time.Millisecond, NoBackground: true,
	})
	if err != nil {
		t.Fatalf("Measure itself errored: %v", err)
	}
	if res.Lost != 2 {
		t.Fatalf("lost = %d, want 2 (connect refused)", res.Lost)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Measure(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Measure(context.Background(), Config{Target: "not-an-addr", NoBackground: false}); err == nil {
		t.Fatal("malformed target accepted")
	}
}

func TestBackgroundCadence(t *testing.T) {
	s := startTestServers(t)
	start := time.Now()
	res, err := Measure(context.Background(), Config{
		Target: s.Addr(), Probe: ProbeUDPEcho, K: 20,
		WarmupDelay: 10 * time.Millisecond, BackgroundInterval: 10 * time.Millisecond,
		WarmupAddr: s.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Expect roughly elapsed/db background packets (±50% for scheduling).
	expect := int(elapsed / (10 * time.Millisecond))
	if res.BackgroundSent < expect/2 || res.BackgroundSent > 2*expect+2 {
		t.Fatalf("background packets = %d over %v, expected ≈%d", res.BackgroundSent, elapsed, expect)
	}
}
