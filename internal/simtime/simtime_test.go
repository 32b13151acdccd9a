package simtime

import (
	"context"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Post(30*time.Millisecond, func() { got = append(got, 3) })
	s.Post(10*time.Millisecond, func() { got = append(got, 1) })
	s.Post(20*time.Millisecond, func() { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(5*time.Millisecond, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var times []time.Duration
	s.Post(time.Millisecond, func() {
		times = append(times, s.Now())
		s.Post(2*time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	for s.Step() {
	}
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 3*time.Millisecond {
		t.Fatalf("nested schedule times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Reset(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("cancelling an armed timer reported unarmed")
	}
	for s.Step() {
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Armed() || len(s.queue) != 0 {
		t.Fatalf("cancelled timer still queued: armed=%v pending=%d", tm.Armed(), len(s.queue))
	}
	if tm.Stop() { // double-cancel must be a no-op
		t.Fatal("second Stop reported armed")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	s.RunUntil(10 * time.Millisecond)
	s.Post(-5*time.Millisecond, func() { fired = s.Now() })
	for s.Step() {
	}
	if fired != 10*time.Millisecond {
		t.Fatalf("negative-delay event fired at %v, want clamp to now (10ms)", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 5, 9, 15, 30} {
		d := d * time.Millisecond
		s.Post(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(10 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(10ms) fired %d events, want 3", len(fired))
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v, want 10ms", s.Now())
	}
	if len(s.queue) != 2 {
		t.Fatalf("pending = %d, want 2", len(s.queue))
	}
	for s.Step() {
	}
	if len(fired) != 5 {
		t.Fatalf("after Run, fired %d events, want 5", len(fired))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		var step func()
		step = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.Post(Uniform{Lo: time.Microsecond, Hi: time.Millisecond}.Sample(s), step)
			}
		}
		s.Post(0, step)
		for s.Step() {
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimerResetSemantics(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	tm := NewTimer(s, func() { fired = s.Now() })
	if tm.Armed() {
		t.Fatal("new timer reports armed")
	}
	if was := tm.Reset(10 * time.Millisecond); was {
		t.Fatal("Reset on unarmed timer returned true")
	}
	s.RunUntil(5 * time.Millisecond)
	if was := tm.Reset(10 * time.Millisecond); !was {
		t.Fatal("Reset on armed timer returned false")
	}
	for s.Step() {
	}
	if fired != 15*time.Millisecond {
		t.Fatalf("timer fired at %v, want 15ms (reset extended deadline)", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Reset(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer returned false")
	}
	if tm.Stop() {
		t.Fatal("Stop on unarmed timer returned true")
	}
	for s.Step() {
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerDeadline(t *testing.T) {
	s := New(1)
	tm := NewTimer(s, func() {})
	if tm.Armed() {
		t.Fatal("unarmed timer reports a deadline")
	}
	tm.Reset(7 * time.Millisecond)
	if !tm.Armed() || tm.ev.when != 7*time.Millisecond {
		t.Fatalf("deadline = %v,%v; want 7ms,true", tm.ev.when, tm.Armed())
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	s := New(1)
	var ticks []time.Duration
	var tk *Ticker
	tk = NewTicker(s, 10*time.Millisecond, 3*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 4 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Second)
	want := []time.Duration{3, 13, 23, 33}
	if len(ticks) != 4 {
		t.Fatalf("ticks = %v, want 4 entries", ticks)
	}
	for i, w := range want {
		if ticks[i] != w*time.Millisecond {
			t.Fatalf("tick %d at %v, want %vms", i, ticks[i], w)
		}
	}
}

func TestTickerNextAfter(t *testing.T) {
	s := New(1)
	tk := NewTicker(s, 102400*time.Microsecond, 50*time.Millisecond, func() {})
	defer tk.Stop()
	cases := []struct{ at, want time.Duration }{
		{0, 50 * time.Millisecond},
		{50 * time.Millisecond, 152400 * time.Microsecond}, // strictly after
		{60 * time.Millisecond, 152400 * time.Microsecond},
		{153 * time.Millisecond, 254800 * time.Microsecond},
	}
	for _, c := range cases {
		if got := tk.NextAfter(c.at); got != c.want {
			t.Errorf("NextAfter(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(7)
	u := Uniform{Lo: 2 * time.Millisecond, Hi: 9 * time.Millisecond}
	for i := 0; i < 2000; i++ {
		v := u.Sample(s)
		if v < u.Lo || v > u.Hi {
			t.Fatalf("uniform sample %v outside [%v,%v]", v, u.Lo, u.Hi)
		}
	}
}

func TestDistMeansApproximatelyCorrect(t *testing.T) {
	s := New(11)
	dists := []Dist{
		Const(3 * time.Millisecond),
		Uniform{Lo: time.Millisecond, Hi: 5 * time.Millisecond},
		Mixture{Weights: []float64{0.5, 0.5}, Parts: []Dist{Const(2 * time.Millisecond), Const(6 * time.Millisecond)}},
	}
	for _, d := range dists {
		const n = 20000
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += d.Sample(s)
		}
		got := float64(sum) / n
		want := float64(d.Mean())
		if want == 0 {
			continue
		}
		if rel := (got - want) / want; rel > 0.05 || rel < -0.05 {
			t.Errorf("%v: empirical mean %.3fms vs analytical %.3fms",
				d, got/1e6, want/1e6)
		}
	}
}

// Property: scheduling any set of non-negative delays fires them in
// non-decreasing timestamp order and ends with the clock at the max.
func TestQuickScheduleOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := New(5)
		var fired []time.Duration
		var max time.Duration
		for _, d := range delaysMs {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			s.Post(dd, func() { fired = append(fired, s.Now()) })
		}
		for s.Step() {
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delaysMs) == 0 || s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ticker.NextAfter always returns a strictly later instant that
// is phase-aligned.
func TestQuickTickerNextAfter(t *testing.T) {
	f := func(periodMs uint8, offsetMs uint8, queryUs uint32) bool {
		period := time.Duration(periodMs%100+1) * time.Millisecond
		offset := time.Duration(offsetMs) * time.Millisecond
		s := New(9)
		tk := NewTicker(s, period, offset, func() {})
		defer tk.Stop()
		q := time.Duration(queryUs) * time.Microsecond
		next := tk.NextAfter(q)
		if next <= q && !(q < offset && next == offset) {
			return false
		}
		// alignment: (next - offset) must be a multiple of period
		return (next-offset)%period == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilCtxMatchesRunUntil(t *testing.T) {
	build := func() (*Sim, *[]time.Duration) {
		s := New(1)
		var fired []time.Duration
		for _, d := range []time.Duration{1 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond, 20 * time.Millisecond} {
			d := d
			s.Post(d, func() { fired = append(fired, d) })
		}
		return s, &fired
	}

	a, firedA := build()
	a.RunUntil(10 * time.Millisecond)
	b, firedB := build()
	if err := b.RunUntilCtx(context.Background(), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(*firedA) != len(*firedB) || len(*firedB) != 3 {
		t.Fatalf("fired %d vs %d events, want 3 each", len(*firedA), len(*firedB))
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverge: %v vs %v", a.Now(), b.Now())
	}
	if len(b.queue) != 1 {
		t.Fatalf("events beyond the horizon must stay queued, pending=%d", len(b.queue))
	}
}

func TestRunUntilCtxCancelled(t *testing.T) {
	s := New(1)
	fired := 0
	// A self-rescheduling event chain that would run forever.
	var loop func()
	loop = func() {
		fired++
		s.Post(time.Millisecond, loop)
	}
	s.Post(0, loop)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunUntilCtx(ctx, time.Hour); err == nil {
		t.Fatal("cancelled context not reported")
	}
	if fired > 64 {
		t.Fatalf("cancellation let %d events fire", fired)
	}
	if err := s.RunUntilCtx(context.Background(), s.Now()+3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired < 3 {
		t.Fatalf("simulation did not resume after a cancelled drive, fired=%d", fired)
	}
}
