// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each
// experiment builds fresh testbeds (one per cell, so runs never share
// state), executes the same workload the paper describes, and returns
// both structured data and a rendered text artifact.
package experiments

import (
	"time"

	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/testbed"
)

// Options tunes experiment scale.
type Options struct {
	// Seed keys all randomness; cells derive sub-seeds from it.
	Seed int64
	// Probes is the per-cell probe count (the paper uses 100).
	Probes int
	// Quick reduces probe counts for smoke tests.
	Quick bool
	// Workers bounds the fleet pool the suites run their cells on
	// (0 = GOMAXPROCS). Cells are independent seeded testbeds, so
	// results are identical for any worker count.
	Workers int
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Probes <= 0 {
		o.Probes = 100
	}
	if o.Quick && o.Probes > 30 {
		o.Probes = 30
	}
}

// probes returns the effective per-cell count.
func (o Options) probes() int { return o.Probes }

// subSeed derives a per-cell seed so cells are independent but the whole
// experiment is reproducible from Options.Seed.
func (o Options) subSeed(cell int64) int64 { return o.Seed*1_000_003 + cell }

// parMap runs n independent experiment cells on the fleet worker pool,
// returning results in cell order. Every cell builds its own seeded
// testbed, so parallel execution changes wall-clock only.
func parMap[T any](o Options, n int, f func(i int) T) []T {
	return fleet.Map(o.Workers, n, f)
}

// newTB builds a cell testbed.
func newTB(seed int64, phoneName string, rtt time.Duration, mod func(*testbed.Config)) *testbed.Testbed {
	cfg := testbed.DefaultConfig()
	cfg.Seed = seed
	if phoneName != "" {
		p, ok := android.ProfileByName(phoneName)
		if !ok {
			panic("experiments: unknown phone " + phoneName)
		}
		cfg.Phone = p
	}
	cfg.EmulatedRTT = rtt
	if mod != nil {
		mod(&cfg)
	}
	return testbed.New(cfg)
}

// Phones under test, in the paper's presentation order.
var (
	AllPhones  = []string{"Google Nexus 5", "Sony Xperia J", "Samsung Grand", "Google Nexus 4", "HTC One"}
	Fig7Phones = []string{"Google Nexus 5", "Samsung Grand", "Google Nexus 4"}
)
