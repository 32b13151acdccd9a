// Package simtime implements the discrete-event simulation kernel that
// underlies every simulated component in this repository.
//
// The simulator keeps a virtual clock (a time.Duration measured from the
// start of the simulation) and a priority queue of pending events. All
// model components — the phone's SDIO bus, the 802.11 MAC, the wired
// links, the measurement tools — advance exclusively by posting
// callbacks on a shared *Sim. The event loop is single-threaded, so runs
// are deterministic for a fixed seed, which is what makes the paper's
// tables reproducible bit-for-bit.
//
// Every event has one shape: a callback and one argument. Post and
// PostAt queue a func() (the argument is unused). PostWith queues
// fn(arg) for a pointer arg, so a component that moves packets or
// pooled per-transfer records binds fn once (a method value stored at
// construction, or a plain function) and then posts each one without
// making a closure. All events share one queue and one (when, seq)
// order.
//
// A posted event is fire-and-forget: nobody holds it, so it returns to
// the Sim's free list once it fires and the next post reuses it.
// Callbacks that must be cancelled or moved are Timers and Tickers,
// each of which owns one event and re-arms it in place. A session
// therefore allocates no events in steady state, and the hot posts
// allocate nothing at all.
package simtime

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// event is one queued call, fn.call(arg). Events are ordered by
// (when, seq); seq is drawn from the Sim each time the event is armed,
// so the order is total and events armed for the same instant fire
// first-in, first-out.
type event struct {
	when time.Duration
	seq  uint64
	fn   caller
	arg  any
	idx  int // heap index; -1 when not queued
	// pooled marks a posted event: it goes back to the free list once it
	// fires. Timer and Ticker events are never pooled.
	pooled bool
}

// caller is an event's callback. Both implementations are func types,
// so storing one in an event allocates nothing.
type caller interface{ call(arg any) }

// thunk is a func() callback; it ignores the argument.
type thunk func()

func (f thunk) call(any) { f() }

// handler is a callback that takes one *T.
type handler[T any] func(*T)

func (f handler[T]) call(arg any) { f(arg.(*T)) }

func (e *event) less(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulator. It is not safe for concurrent use;
// all model code runs on the event-loop "thread".
type Sim struct {
	now time.Duration
	// queue is a binary min-heap on (when, seq).
	queue []*event
	free  []*event
	seq   uint64
	rng   *rand.Rand
	// executed counts events that have fired, a cheap progress and
	// runaway-loop diagnostic.
	executed uint64
}

// New returns a simulator whose random source is seeded with seed.
// Distinct seeds produce statistically independent runs.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events that have fired so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Post queues fn to run after delay d (d < 0 is clamped to 0). The
// event cannot be cancelled; use a Timer for a callback that may be.
func (s *Sim) Post(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.PostAt(s.now+d, fn)
}

// PostAt queues fn to run at absolute virtual time t. Times in the past
// are clamped to the current instant (the event still fires, after
// events already queued for Now).
func (s *Sim) PostAt(t time.Duration, fn func()) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	e := s.alloc()
	e.fn = thunk(fn)
	s.arm(e, t)
}

// PostWith queues fn(arg) to run after delay d (d < 0 is clamped to 0).
// fn should be bound once by its owner, not made per call: then the
// post allocates nothing. Like Post, the event cannot be cancelled.
func PostWith[T any](s *Sim, d time.Duration, fn func(*T), arg *T) {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	if d < 0 {
		d = 0
	}
	e := s.alloc()
	e.fn, e.arg = handler[T](fn), arg
	s.arm(e, s.now+d)
}

// alloc takes a posted event from the free list, or makes one.
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return &event{idx: -1, pooled: true}
}

// arm queues e for time t (clamped to Now) under a fresh sequence
// number, moving it in place when it is already queued. Re-arming keeps
// exactly the order that cancelling and queueing a new event would.
func (s *Sim) arm(e *event, t time.Duration) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.when, e.seq = t, s.seq
	if e.idx < 0 {
		e.idx = len(s.queue)
		s.queue = append(s.queue, e)
		s.up(e.idx)
		return
	}
	s.fix(e.idx)
}

// cancel removes a queued e; an unqueued e is left alone.
func (s *Sim) cancel(e *event) {
	i := e.idx
	if i < 0 {
		return
	}
	q := s.queue
	last := len(q) - 1
	q[i] = q[last]
	q[last] = nil
	s.queue = q[:last]
	e.idx = -1
	if i != last {
		s.fix(i)
	}
}

func (s *Sim) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

// up and down move the event at i through a hole, writing each event
// it passes once.
func (s *Sim) up(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = i
		i = p
	}
	q[i] = e
	e.idx = i
}

// down reports whether the event at i moved.
func (s *Sim) down(i int) bool {
	q := s.queue
	n := len(q)
	e := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].less(q[c]) {
			c = r
		}
		if !q[c].less(e) {
			break
		}
		q[i] = q[c]
		q[i].idx = i
		i = c
	}
	q[i] = e
	e.idx = i
	return i > start
}

// Step fires the earliest event. It reports false when the queue is
// empty. A posted event goes back to the free list before its callback
// runs, so a callback that posts again reuses the event that just fired.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0]
	s.cancel(e)
	if e.when > s.now {
		s.now = e.when
	}
	s.executed++
	fn, arg := e.fn, e.arg
	if e.pooled {
		e.fn, e.arg = nil, nil
		s.free = append(s.free, e)
	}
	fn.call(arg)
	return true
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued.
func (s *Sim) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].when <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// StepUntilCtx fires events until done reports true, the clock reaches
// limit, or the queue drains — checking ctx every few events. It is the
// one shared drive loop for completion-flag-driven runs (the AcuteMon
// monitors); RunUntilCtx below is its time-horizon sibling. Events
// already fired stay fired; the remainder stay queued.
func (s *Sim) StepUntilCtx(ctx context.Context, limit time.Duration, done func() bool) error {
	steps := 0
	for !done() && s.now < limit {
		if steps&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		steps++
		if !s.Step() {
			break
		}
	}
	return ctx.Err()
}

// RunUntilCtx is RunUntil with cooperative cancellation: it fires the
// same events RunUntil(t) would (timestamps <= t, clock advanced to t
// afterwards) but checks ctx every few events and stops early with
// ctx's error when it is cancelled. Events already fired stay fired;
// the remainder stay queued, so a cancelled run leaves a consistent
// partial simulation behind.
func (s *Sim) RunUntilCtx(ctx context.Context, t time.Duration) error {
	steps := 0
	for len(s.queue) > 0 && s.queue[0].when <= t {
		if steps&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		steps++
		s.Step()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// String summarises the simulator state for debugging.
func (s *Sim) String() string {
	return fmt.Sprintf("simtime.Sim{now=%v pending=%d executed=%d}", s.now, len(s.queue), s.executed)
}
