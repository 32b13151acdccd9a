package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/packet"
)

// refEvent is one pending callback in the reference model.
type refEvent struct {
	when time.Duration
	seq  uint64
	id   int
}

// TestQueueMatchesSortedReference drives random Post, Timer.Reset,
// Timer.Stop and Step sequences and requires every fired callback to be
// the one a sort by (when, seq) over the reference's pending set names.
// Posted events recycle through the free list throughout. The second
// pass posts every other event as a packet event (PostWith), whose
// handler names the event by the packet it was handed, so packet and
// closure events share one order and a recycled event never delivers a
// stale packet.
func TestQueueMatchesSortedReference(t *testing.T) {
	t.Run("closures", func(t *testing.T) { queueMatchesSortedReference(t, false) })
	t.Run("packets", func(t *testing.T) { queueMatchesSortedReference(t, true) })
}

func queueMatchesSortedReference(t *testing.T, packets bool) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		var pending []refEvent
		var seq uint64
		fired := -1
		arm := func(id int, d time.Duration) {
			seq++
			pending = append(pending, refEvent{when: s.Now() + d, seq: seq, id: id})
		}
		drop := func(id int) {
			for i, e := range pending {
				if e.id == id {
					pending = append(pending[:i], pending[i+1:]...)
					return
				}
			}
		}
		onPkt := func(p *packet.Packet) { fired = int(p.ID) }
		const nTimers = 4
		timers := make([]*Timer, nTimers)
		for i := range timers {
			id := -2 - i // timers use negative ids
			timers[i] = NewTimer(s, func() { fired = id })
		}
		nextID := 0
		for op := 0; op < 2000; op++ {
			d := time.Duration(rng.Intn(8)) * time.Millisecond
			switch k := rng.Intn(10); {
			case k < 4:
				id := nextID
				nextID++
				if packets && id%2 == 1 {
					PostWith(s, d, onPkt, &packet.Packet{ID: uint64(id)})
				} else {
					s.Post(d, func() { fired = id })
				}
				arm(id, d)
			case k < 6:
				i := rng.Intn(nTimers)
				drop(-2 - i)
				timers[i].Reset(d)
				arm(-2-i, d)
			case k < 7:
				i := rng.Intn(nTimers)
				drop(-2 - i)
				timers[i].Stop()
			default:
				if len(pending) == 0 {
					if s.Step() {
						t.Fatalf("seed %d op %d: Step fired with an empty reference", seed, op)
					}
					continue
				}
				sort.Slice(pending, func(a, b int) bool {
					if pending[a].when != pending[b].when {
						return pending[a].when < pending[b].when
					}
					return pending[a].seq < pending[b].seq
				})
				want := pending[0]
				pending = pending[1:]
				fired = -1
				if !s.Step() {
					t.Fatalf("seed %d op %d: Step fired nothing, want id %d", seed, op, want.id)
				}
				if fired != want.id || s.Now() != want.when {
					t.Fatalf("seed %d op %d: fired id %d at %v, want id %d at %v",
						seed, op, fired, s.Now(), want.id, want.when)
				}
			}
			if len(s.queue) != len(pending) {
				t.Fatalf("seed %d op %d: %d queued, reference holds %d", seed, op, len(s.queue), len(pending))
			}
		}
	}
}

// TestHeldEventsNeverRecycled cancels and re-arms Timers and Tickers
// from inside posted callbacks while posted events are recycled, and
// checks that a Timer or Ticker event never enters the free list and
// that each one fires exactly as last armed.
func TestHeldEventsNeverRecycled(t *testing.T) {
	s := New(3)
	rng := rand.New(rand.NewSource(3))
	const nTimers = 6
	timers := make([]*Timer, nTimers)
	deadline := make([]time.Duration, nTimers) // -1: disarmed
	fires := make([]int, nTimers)
	for i := range timers {
		i := i
		deadline[i] = -1
		timers[i] = NewTimer(s, func() {
			if s.Now() != deadline[i] {
				t.Fatalf("timer %d fired at %v, armed for %v", i, s.Now(), deadline[i])
			}
			deadline[i] = -1
			fires[i]++
		})
	}
	var tickers []*Ticker
	stoppedTicks := 0
	held := func() {
		for _, e := range s.free {
			if !e.pooled {
				t.Fatal("a Timer or Ticker event entered the free list")
			}
			for _, tm := range timers {
				if e == &tm.ev {
					t.Fatal("a timer's event entered the free list")
				}
			}
		}
	}
	var churn func()
	churn = func() {
		held()
		i := rng.Intn(nTimers)
		switch rng.Intn(4) {
		case 0:
			timers[i].Stop()
			deadline[i] = -1
		case 1, 2:
			d := time.Duration(rng.Intn(5)) * time.Millisecond
			timers[i].Reset(d)
			deadline[i] = s.Now() + d
		case 3:
			if n := len(tickers); n > 0 && rng.Intn(2) == 0 {
				tk := tickers[rng.Intn(n)]
				tk.Stop()
			} else {
				var tk *Ticker
				stopped := false
				tk = NewTicker(s, time.Duration(1+rng.Intn(3))*time.Millisecond, 0, func() {
					if stopped {
						stoppedTicks++
					}
					if rng.Intn(5) == 0 {
						stopped = true
						tk.Stop()
					}
				})
				tickers = append(tickers, tk)
			}
		}
		// Several short-lived posts per churn step keep the free list busy.
		for k := 0; k < 3; k++ {
			s.Post(time.Duration(rng.Intn(3))*time.Millisecond, func() {})
		}
		if s.Now() < 2*time.Second {
			s.Post(time.Duration(rng.Intn(2))*time.Millisecond, churn)
		}
	}
	s.Post(0, churn)
	s.RunUntil(2 * time.Second)
	for _, tk := range tickers {
		tk.Stop()
	}
	for s.Step() {
	}
	held()
	if stoppedTicks != 0 {
		t.Fatalf("%d ticks fired after their ticker stopped itself", stoppedTicks)
	}
	total := 0
	for i, tm := range timers {
		if tm.Armed() || deadline[i] != -1 {
			t.Fatalf("timer %d still armed after the queue drained", i)
		}
		total += fires[i]
	}
	if total == 0 || len(s.free) == 0 {
		t.Fatalf("test exercised nothing: %d timer fires, %d free events", total, len(s.free))
	}
}

// TestRepostReusesFiredEventFIFO posts from a callback, reusing the
// event that just fired, and requires the new event to run after the
// ones already queued for the same instant.
func TestRepostReusesFiredEventFIFO(t *testing.T) {
	s := New(1)
	var got []string
	reused := false
	s.Post(time.Millisecond, func() {
		got = append(got, "a")
		if len(s.free) == 0 {
			t.Fatal("the fired event is not on the free list")
		}
		recycled := s.free[len(s.free)-1]
		s.Post(0, func() { got = append(got, "d") })
		for _, e := range s.queue {
			reused = reused || e == recycled
		}
	})
	s.Post(time.Millisecond, func() { got = append(got, "b") })
	s.Post(time.Millisecond, func() { got = append(got, "c") })
	for s.Step() {
	}
	if !reused {
		t.Fatal("the repost did not reuse the event that just fired")
	}
	if want := "abcd"; len(got) != 4 || got[0]+got[1]+got[2]+got[3] != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("clock %v, want 1ms", s.Now())
	}
}

// TestPacketPostAllocatesNothing: in steady state a packet event takes
// a recycled event and its handler is bound once, so posting and
// firing one allocates nothing.
func TestPacketPostAllocatesNothing(t *testing.T) {
	s := New(1)
	p := &packet.Packet{ID: 7}
	n := 0
	var fire func(*packet.Packet)
	fire = func(got *packet.Packet) {
		if got != p {
			t.Fatalf("handler got packet %v, want %v", got, p)
		}
		n++
		PostWith(s, time.Duration(n%5)*time.Microsecond, fire, got)
	}
	for k := 0; k < 16; k++ {
		PostWith(s, time.Duration(k)*time.Microsecond, fire, p)
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("a packet post and fire allocates %.1f times, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no packet event fired")
	}
}
