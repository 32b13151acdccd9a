package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScaledDist(t *testing.T) {
	s := New(1)
	d := Scaled{D: Const(10 * time.Millisecond), Factor: 2.3}
	if got := d.Sample(s); got != 23*time.Millisecond {
		t.Fatalf("scaled sample = %v, want 23ms", got)
	}
	if got := d.Mean(); got != 23*time.Millisecond {
		t.Fatalf("scaled mean = %v", got)
	}
	if d.String() == "" {
		t.Fatal("empty string form")
	}
}

func TestMixtureEdgeCases(t *testing.T) {
	s := New(4)
	var empty Mixture
	if empty.Sample(s) != 0 || empty.Mean() != 0 {
		t.Fatal("empty mixture should be zero")
	}
	// Zero-weight components never fire.
	m := Mixture{Weights: []float64{0, 1}, Parts: []Dist{Const(time.Hour), Const(time.Millisecond)}}
	for i := 0; i < 1000; i++ {
		if m.Sample(s) == time.Hour {
			t.Fatal("zero-weight component sampled")
		}
	}
}

// Property: a Timer subjected to an arbitrary Reset/Stop sequence either
// fires exactly at its last-armed deadline or not at all.
func TestQuickTimerLastResetWins(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New(5)
		var fired []time.Duration
		tm := NewTimer(s, func() { fired = append(fired, s.Now()) })
		var wantDeadline time.Duration = -1
		now := time.Duration(0)
		for _, op := range ops {
			step := time.Duration(op%7) * time.Millisecond
			now += step
			s.RunUntil(now)
			if tm.Armed() == false {
				wantDeadline = -1
			}
			if op%3 == 0 {
				tm.Stop()
				wantDeadline = -1
			} else {
				d := time.Duration(op%11+1) * time.Millisecond
				tm.Reset(d)
				wantDeadline = s.Now() + d
			}
		}
		s.RunUntil(now + time.Second)
		switch {
		case wantDeadline < 0:
			return len(fired) == 0 || fired[len(fired)-1] < wantDeadlineSafe(wantDeadline)
		default:
			return len(fired) >= 1 && fired[len(fired)-1] == wantDeadline
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func wantDeadlineSafe(d time.Duration) time.Duration {
	if d < 0 {
		return 1 << 62
	}
	return d
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	s := New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	NewTicker(s, 0, 0, func() {})
}

func TestNilTimerCallbackPanics(t *testing.T) {
	s := New(7)
	defer func() {
		if recover() == nil {
			t.Fatal("nil timer callback did not panic")
		}
	}()
	NewTimer(s, nil)
}
