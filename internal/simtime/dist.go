package simtime

import (
	"fmt"
	"time"
)

// Dist is a duration-valued random distribution. The latency models in
// this repository (SDIO wake cost, scheduler jitter, DVM overhead) are
// expressed as Dists so experiments can swap them or pin them to
// constants in tests.
type Dist interface {
	// Sample draws one value using the simulator's random source.
	Sample(s *Sim) time.Duration
	// Mean returns the distribution's analytical mean, used in docs and
	// sanity tests.
	Mean() time.Duration
	fmt.Stringer
}

// Const is a degenerate distribution that always returns its value.
type Const time.Duration

// Sample implements Dist.
func (c Const) Sample(*Sim) time.Duration { return time.Duration(c) }

// Mean implements Dist.
func (c Const) Mean() time.Duration { return time.Duration(c) }

func (c Const) String() string { return fmt.Sprintf("const(%v)", time.Duration(c)) }

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(s *Sim) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(s.Rand().Int63n(int64(u.Hi-u.Lo)+1))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Lo, u.Hi) }

// Scaled multiplies another distribution by a constant factor, used to
// derate latencies for slower CPUs (e.g. the Xperia J's single core).
type Scaled struct {
	D      Dist
	Factor float64
}

// Sample implements Dist.
func (s Scaled) Sample(sim *Sim) time.Duration {
	return time.Duration(float64(s.D.Sample(sim)) * s.Factor)
}

// Mean implements Dist.
func (s Scaled) Mean() time.Duration { return time.Duration(float64(s.D.Mean()) * s.Factor) }

func (s Scaled) String() string { return fmt.Sprintf("%v×%.2f", s.D, s.Factor) }

// Mixture samples component i with probability Weights[i] (weights are
// normalised). It models bimodal behaviour such as "usually fast path,
// occasionally a GC pause".
type Mixture struct {
	Weights []float64
	Parts   []Dist
}

// Sample implements Dist.
func (m Mixture) Sample(s *Sim) time.Duration {
	if len(m.Parts) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := s.Rand().Float64() * total
	for i, w := range m.Weights {
		if x < w || i == len(m.Parts)-1 {
			return m.Parts[i].Sample(s)
		}
		x -= w
	}
	return m.Parts[len(m.Parts)-1].Sample(s)
}

// Mean implements Dist.
func (m Mixture) Mean() time.Duration {
	total := 0.0
	var acc float64
	for i, w := range m.Weights {
		total += w
		acc += w * float64(m.Parts[i].Mean())
	}
	if total == 0 {
		return 0
	}
	return time.Duration(acc / total)
}

func (m Mixture) String() string { return fmt.Sprintf("mixture(%d parts)", len(m.Parts)) }
