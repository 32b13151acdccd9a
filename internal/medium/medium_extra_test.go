package medium

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

func TestPersistentCollisionsDropFrame(t *testing.T) {
	sim := simtime.New(3)
	opts := DefaultOptions()
	opts.CollisionProbPerContender = 1.0 // every contended access collides
	opts.CollisionProbCap = 1.0
	opts.MaxRetries = 3
	m := New(sim, phy.Default80211g(), opts)
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	c := &fakeStation{mac: packet.MAC(3), radio: true}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	f := &packet.Factory{}

	drops := 0
	var firstDrop time.Duration
	count := func(r TxResult) {
		if r == TxDroppedRetries {
			if drops == 0 {
				firstDrop = sim.Now()
			}
			drops++
		}
	}
	// Keep both stations backlogged: once both queues are non-empty,
	// every contended access collides (prob 1), so head frames exhaust
	// their retries and drop.
	for i := 0; i < 5; i++ {
		m.Transmit(a, dataFrame(f, a.mac, c.mac, 200), false, count)
		m.Transmit(b, dataFrame(f, b.mac, c.mac, 200), false, count)
	}
	sim.RunUntil(time.Second)
	if drops == 0 {
		t.Fatal("no retry-exhaustion drops despite forced collisions")
	}
	// A frame drops only after MaxRetries+1 collided rounds, each at
	// least DIFS plus a frame's airtime long.
	round := m.phy.DIFS() + m.frameAirtime(dataFrame(f, a.mac, c.mac, 200))
	if min := time.Duration(opts.MaxRetries+1) * round; firstDrop < min {
		t.Fatalf("first drop at %v, want ≥ %v (%d collided rounds)", firstDrop, min, opts.MaxRetries+1)
	}
}

func TestBackoffGrowsWithRetries(t *testing.T) {
	sim := simtime.New(4)
	m := New(sim, phy.Default80211g(), DefaultOptions())
	// Draw many backoffs at retry 0 and retry 5; the mean must grow
	// roughly with the contention window.
	mean := func(retries, n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			total += m.backoff(retries)
		}
		return total / time.Duration(n)
	}
	b0 := mean(0, 3000)
	b5 := mean(5, 3000)
	if b5 < 8*b0 {
		t.Fatalf("backoff(5)=%v not ≫ backoff(0)=%v", b5, b0)
	}
	// And it saturates at CWmax.
	b20 := mean(20, 3000)
	if b20 > 2*b5 {
		t.Fatalf("backoff(20)=%v should be capped near backoff(5)=%v", b20, b5)
	}
}

func TestUtilizationBounded(t *testing.T) {
	sim := simtime.New(5)
	m := New(sim, phy.Default80211g(), DefaultOptions())
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	tap := &fakeTap{}
	m.AttachTap(tap)
	f := &packet.Factory{}
	for i := 0; i < 200; i++ {
		m.Transmit(a, dataFrame(f, a.mac, b.mac, 1470), false, nil)
	}
	sim.RunUntil(500 * time.Millisecond)
	// One frame on the air at a time: captures never overlap, so their
	// airtime fits in the run.
	for i := 1; i < len(tap.frames); i++ {
		if tap.starts[i] < tap.ends[i-1] {
			t.Fatalf("frame %d on air at %v, before frame %d ended at %v", i, tap.starts[i], i-1, tap.ends[i-1])
		}
	}
	if u := float64(tap.airtime()) / float64(sim.Now()); u <= 0 || u > 1.0 {
		t.Fatalf("utilization = %v outside (0,1]", u)
	}
}

func TestQueueLenTracksBacklog(t *testing.T) {
	sim := simtime.New(6)
	m := New(sim, phy.Default80211g(), DefaultOptions())
	a := &fakeStation{mac: packet.MAC(1), radio: true}
	b := &fakeStation{mac: packet.MAC(2), radio: true}
	m.Attach(a)
	m.Attach(b)
	f := &packet.Factory{}
	for i := 0; i < 10; i++ {
		m.Transmit(a, dataFrame(f, a.mac, b.mac, 1470), false, nil)
	}
	// One frame is in flight immediately; the rest are queued.
	if q := len(m.queues[m.index[packet.MAC(1)]]); q != 9 {
		t.Fatalf("queue len = %d, want 9", q)
	}
	sim.RunUntil(time.Second)
	if q := len(m.queues[m.index[packet.MAC(1)]]); q != 0 {
		t.Fatalf("queue not drained: %d", q)
	}
}
