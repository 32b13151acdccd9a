// Package puncture is the repository's device-knowledge engine: one
// persistent, mergeable store of everything the system has learned
// about how each phone model inflates its measurements — the paper's
// §4.1 future-work item ("collect the configurations by modelling and
// building a database") grown into the shape a crowd-scale deployment
// needs.
//
// Its unit is the DeviceProfile: the model's calibrated energy-saving
// timers (Tip/Tis and the derived dpre/db — a CalEntry) fused with the
// learned per-model overhead moments
// (previously ingest.ModelOverhead, which evaporated on every ingestd
// restart), plus sample counts, an update epoch, and the chipset-family
// key that lets models of the same WiFi chip teach each other.
//
// Three properties make the store the single source of truth across
// layers:
//
//   - one correction-resolution ladder (Resolve): reported attribution
//     → learned model profile → chipset-family fallback → global prior,
//     each step tagged with an explicit Source;
//   - merge laws matching internal/agg: profiles, families, and whole
//     stores built over shuffled disjoint chunks of an update stream
//     merge into the same state as one store folding the whole stream
//     (exactly for counts, up to float rounding for moments, within the
//     documented rank-error bound for correction sketches) — so a fleet
//     campaign can emit a profile delta and a live ingestd can absorb
//     it;
//   - a canonical JSON snapshot (Snapshot/SaveFile/LoadFile) whose
//     save→load→save round trip is bit-for-bit identical, so learned
//     knowledge survives restarts.
//
// The store is the only calibration surface: fleet campaigns calibrate
// into it (core.CalibrateInto), sessions and campaigns read dpre/db
// from it, and ingest.Puncturer rides it for live puncturing. The
// plain CalEntry-array file of the -registry flags loads through the
// same LoadFile and is written by SaveCalibrationsFile.
package puncture

import (
	"fmt"
	"time"

	"repro/internal/agg"
)

// Source says where a puncturing correction came from — one rung of
// the resolution ladder. It replaces the ingest-local CorrectionSource
// enum so every layer (ingest cells, fleet campaigns, CLI output)
// speaks the same provenance vocabulary.
type Source uint8

const (
	// SourceNone: nothing known about the model, its family, or the
	// fleet at large; raw == corrected.
	SourceNone Source = iota
	// SourceReported: the device shipped its own layer attribution
	// (Δdu−k, Δdk−n, PSM share) and the correction is its session means.
	SourceReported
	// SourceLearned: the correction is the model-level profile learned
	// from attributing peers of the same model.
	SourceLearned
	// SourceFamily: the model itself is unknown but its WiFi chipset
	// family is; the correction is the family-level aggregate.
	SourceFamily
	// SourceGlobal: model and family are both unknown; the correction
	// is the global prior over every attributing session.
	SourceGlobal

	numSources = 5
)

func (s Source) String() string {
	switch s {
	case SourceReported:
		return "reported"
	case SourceLearned:
		return "learned"
	case SourceFamily:
		return "family"
	case SourceGlobal:
		return "global"
	default:
		return "none"
	}
}

// CalEntry is one device model's calibrated energy-saving parameters:
// the measured demotion timers Tip/Tis and the derived AcuteMon
// settings dpre (Warmup) and db (Interval). A -registry file is a JSON
// array of these (see SaveCalibrationsFile); LoadFile reads it back.
type CalEntry struct {
	Model   string `json:"model"`
	Chipset string `json:"chipset,omitempty"`
	// Tip and Tis are the measured demotion timers.
	Tip time.Duration `json:"tip_ns"`
	Tis time.Duration `json:"tis_ns"`
	// Warmup (dpre) and Interval (db) are the derived AcuteMon settings.
	Warmup   time.Duration `json:"warmup_ns"`
	Interval time.Duration `json:"interval_ns"`
	// Samples records how many Tip observations backed the entry.
	Samples int `json:"samples"`
}

// Validate reports whether the entry is a usable calibration.
func (e CalEntry) Validate() error {
	if e.Model == "" {
		return fmt.Errorf("registry: entry without model")
	}
	if e.Interval <= 0 || e.Warmup <= 0 {
		return fmt.Errorf("registry: %s: non-positive dpre/db", e.Model)
	}
	min := e.Tip
	if e.Tis > 0 && e.Tis < min {
		min = e.Tis
	}
	if min > 0 && e.Interval >= min {
		return fmt.Errorf("registry: %s: db %v violates db < min(Tis,Tip) = %v", e.Model, e.Interval, min)
	}
	return nil
}

// Calibrated reports whether the entry carries usable timers (a
// profile that has only learned overheads has none).
func (e CalEntry) Calibrated() bool { return e.Warmup > 0 && e.Interval > 0 }

// calBetter reports whether calibration a should win a merge against b:
// more backing samples first, then a deterministic field order, so the
// choice is commutative and associative regardless of merge order.
func calBetter(a, b CalEntry) bool {
	if a.Calibrated() != b.Calibrated() {
		return a.Calibrated()
	}
	if a.Samples != b.Samples {
		return a.Samples > b.Samples
	}
	if a.Tip != b.Tip {
		return a.Tip > b.Tip
	}
	if a.Tis != b.Tis {
		return a.Tis > b.Tis
	}
	if a.Warmup != b.Warmup {
		return a.Warmup > b.Warmup
	}
	return a.Interval > b.Interval
}

// DeviceProfile is the store's unit of knowledge about one phone model:
// calibrated timers plus the learned overhead moments and a mergeable
// sketch of per-session total corrections. Epoch counts the updates the
// profile has absorbed (attribution folds and calibration records), so
// a merged profile's epoch is the sum of its parts.
type DeviceProfile struct {
	CalEntry
	Epoch int64 `json:"epoch,omitempty"`

	// User / SDIO / PSM fold the per-session mean user-space, host-bus,
	// and PSM overhead shares (ns) reported by attributing sessions.
	User agg.Moments `json:"user_overhead"`
	SDIO agg.Moments `json:"sdio_overhead"`
	PSM  agg.Moments `json:"psm_inflation"`
	// Corr sketches the per-session total correction (ns), so queries
	// can see the correction distribution, not just its mean.
	Corr *agg.Sketch `json:"correction_sketch,omitempty"`
}

// AttributionSessions returns how many attributing sessions taught the
// profile.
func (p *DeviceProfile) AttributionSessions() int64 { return p.User.N }

// Correction returns the profile's mean total per-probe correction,
// clamped at ≥ 0 so an over-learned profile can never inflate (or make
// negative) the punctured RTT.
func (p *DeviceProfile) Correction() time.Duration {
	c := time.Duration(p.User.Mean + p.SDIO.Mean + p.PSM.Mean)
	if c < 0 {
		c = 0
	}
	return c
}

// recordAttribution folds one attributing session's overhead shares in.
func (p *DeviceProfile) recordAttribution(userNS, sdioNS, psmNS int64) {
	p.User.Add(float64(userNS))
	p.SDIO.Add(float64(sdioNS))
	p.PSM.Add(float64(psmNS))
	if p.Corr == nil {
		p.Corr = agg.NewSketch(0)
	}
	p.Corr.Add(float64(userNS + sdioNS + psmNS))
	p.Epoch++
}

// Merge folds another profile for the same model in: learned moments
// and sketches merge, epochs add, and the calibration with the stronger
// backing wins deterministically (so merge order cannot matter).
func (p *DeviceProfile) Merge(o *DeviceProfile) {
	if o == nil {
		return
	}
	if calBetter(o.CalEntry, p.CalEntry) {
		chipset := p.Chipset
		p.CalEntry = o.CalEntry
		if p.Chipset == "" {
			p.Chipset = chipset
		}
	}
	if p.Chipset == "" {
		p.Chipset = o.Chipset
	}
	p.Epoch += o.Epoch
	// Coverage-aware: merging with a sketch-free profile drops the
	// sketch (capture the fold counts before the moments merge below) —
	// a sketch that silently covered a subset would misreport quantiles.
	agg.MergeSketches(&p.Corr, p.User.N, o.Corr, o.User.N)
	p.User.Merge(o.User)
	p.SDIO.Merge(o.SDIO)
	p.PSM.Merge(o.PSM)
}

// Clone returns a deep copy (the sketch is the only shared pointer).
func (p *DeviceProfile) Clone() DeviceProfile {
	c := *p
	c.Corr = p.Corr.Clone()
	return c
}

// Validate rejects profiles that would poison the store: a calibrated
// entry must satisfy the registry invariants, moment counts must be
// consistent, and the sketch must be structurally valid.
func (p *DeviceProfile) Validate() error {
	if p.Model == "" {
		return fmt.Errorf("puncture: profile without model")
	}
	if p.Calibrated() {
		if err := p.CalEntry.Validate(); err != nil {
			return err
		}
	}
	if p.User.N < 0 || p.SDIO.N < 0 || p.PSM.N < 0 ||
		p.User.N != p.SDIO.N || p.User.N != p.PSM.N {
		return fmt.Errorf("puncture: %s: inconsistent overhead sample counts %d/%d/%d",
			p.Model, p.User.N, p.SDIO.N, p.PSM.N)
	}
	if p.Corr != nil {
		if err := p.Corr.Valid(); err != nil {
			return fmt.Errorf("puncture: %s: %w", p.Model, err)
		}
		// A profile may legitimately have no sketch (dropped by a
		// coverage-aware merge); a present sketch must cover every
		// attribution.
		if p.Corr.Count != p.User.N {
			return fmt.Errorf("puncture: %s: correction sketch count %d != %d attribution sessions",
				p.Model, p.Corr.Count, p.User.N)
		}
	}
	if p.Epoch < 0 {
		return fmt.Errorf("puncture: %s: negative epoch", p.Model)
	}
	return nil
}

// FamilyProfile aggregates the learned overheads of every attributing
// session whose model shares one WiFi chipset family — the fallback rung
// for models the store has never seen attribute. The zero Chipset names
// the global prior (every attributing session, any family).
type FamilyProfile struct {
	Chipset string `json:"chipset"`
	Epoch   int64  `json:"epoch,omitempty"`

	User agg.Moments `json:"user_overhead"`
	SDIO agg.Moments `json:"sdio_overhead"`
	PSM  agg.Moments `json:"psm_inflation"`
}

// Sessions returns how many attributing sessions taught the family.
func (f *FamilyProfile) Sessions() int64 { return f.User.N }

// Correction returns the family's mean total correction, clamped ≥ 0.
func (f *FamilyProfile) Correction() time.Duration {
	c := time.Duration(f.User.Mean + f.SDIO.Mean + f.PSM.Mean)
	if c < 0 {
		c = 0
	}
	return c
}

func (f *FamilyProfile) recordAttribution(userNS, sdioNS, psmNS int64) {
	f.User.Add(float64(userNS))
	f.SDIO.Add(float64(sdioNS))
	f.PSM.Add(float64(psmNS))
	f.Epoch++
}

// Merge folds another family aggregate in.
func (f *FamilyProfile) Merge(o *FamilyProfile) {
	if o == nil {
		return
	}
	f.Epoch += o.Epoch
	f.User.Merge(o.User)
	f.SDIO.Merge(o.SDIO)
	f.PSM.Merge(o.PSM)
}

// Validate rejects inconsistent family aggregates.
func (f *FamilyProfile) Validate() error {
	if f.User.N < 0 || f.User.N != f.SDIO.N || f.User.N != f.PSM.N {
		return fmt.Errorf("puncture: family %q: inconsistent sample counts %d/%d/%d",
			f.Chipset, f.User.N, f.SDIO.N, f.PSM.N)
	}
	if f.Epoch < 0 {
		return fmt.Errorf("puncture: family %q: negative epoch", f.Chipset)
	}
	return nil
}
