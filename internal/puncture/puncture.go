// Package puncture is the repository's device-knowledge engine: one
// persistent, mergeable store of everything the system has learned
// about how each phone model inflates its measurements — the paper's
// §4.1 future-work item ("collect the configurations by modelling and
// building a database") grown into the shape a crowd-scale deployment
// needs.
//
// Its unit is the DeviceProfile: the model's calibrated energy-saving
// timers (Tip/Tis and the derived dpre/db — a CalEntry) fused with the
// learned per-model overhead moments, plus sample counts, an update
// epoch, and the chipset-family key that lets models of the same WiFi
// chip teach each other.
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
// from it, and ingest.Puncturer rides it for live puncturing. Its
// snapshot is the one knowledge file format: SaveFile writes it,
// LoadFile reads it, and GET /v1/profiles serves it.
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
// settings dpre (Warmup) and db (Interval). A DeviceProfile embeds one,
// so a knowledge snapshot carries every calibration.
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

// Attribution is one attributing session's overhead shares (ns): the
// paper's decomposition of an app-level RTT's inflation into its
// user-space (Δdu−k), host-bus/SDIO (Δdk−n) and PSM/air
// (mean(dn) − path RTT) parts. It is the unit every Overheads folds and
// RecordAttributionRun teaches in bulk.
type Attribution struct {
	UserNS, SDIONS, PSMNS int64
}

// Overheads folds attributing sessions' overhead shares: one moments
// track per share. It is the one declaration of the triple — device
// profiles, chipset families and the global prior here, ingest cells
// and fleet group aggregates all embed it where the three fields
// belong, so their JSON keys sit in the same place.
type Overheads struct {
	// User / SDIO fold per-session mean Δdu−k and Δdk−n (ns): the
	// user-space and host-bus shares.
	User agg.Moments `json:"user_overhead"`
	SDIO agg.Moments `json:"sdio_overhead"`
	// PSM folds per-session mean(dn) − path RTT (ns): delay added on the
	// air path itself, the PSM/AP-buffering share (may be slightly
	// negative).
	PSM agg.Moments `json:"psm_inflation"`
}

// Add folds one session's attribution.
func (o *Overheads) Add(a Attribution) {
	o.User.Add(float64(a.UserNS))
	o.SDIO.Add(float64(a.SDIONS))
	o.PSM.Add(float64(a.PSMNS))
}

// Merge folds another fold of the triple in.
func (o *Overheads) Merge(p *Overheads) {
	o.User.Merge(p.User)
	o.SDIO.Merge(p.SDIO)
	o.PSM.Merge(p.PSM)
}

// Sessions returns how many attributing sessions were folded.
func (o *Overheads) Sessions() int64 { return o.User.N }

// Correction returns the mean total per-probe correction, clamped at
// ≥ 0 so an over-learned aggregate can never inflate (or make negative)
// the punctured RTT.
func (o *Overheads) Correction() time.Duration {
	return max(time.Duration(o.User.Mean+o.SDIO.Mean+o.PSM.Mean), 0)
}

// check rejects a fold whose three tracks disagree on how many sessions
// they hold.
func (o *Overheads) check() error {
	if o.User.N < 0 || o.User.N != o.SDIO.N || o.User.N != o.PSM.N {
		return fmt.Errorf("inconsistent overhead sample counts %d/%d/%d", o.User.N, o.SDIO.N, o.PSM.N)
	}
	return nil
}

// DeviceProfile is the store's unit of knowledge about one phone model:
// calibrated timers plus the learned overhead moments and a mergeable
// sketch of per-session total corrections. Epoch counts the updates the
// profile has absorbed (attribution folds and calibration records), so
// a merged profile's epoch is the sum of its parts.
type DeviceProfile struct {
	CalEntry
	Epoch int64 `json:"epoch,omitempty"`

	// Overheads folds the per-session mean overhead shares reported by
	// attributing sessions.
	Overheads
	// Corr sketches the per-session total correction (ns), so queries
	// can see the correction distribution, not just its mean.
	Corr *agg.Sketch `json:"correction_sketch,omitempty"`
}

// addRun folds a non-empty run of attributing sessions in, one epoch
// each; the sketch takes each session's total correction.
func (p *DeviceProfile) addRun(run []Attribution) {
	if p.Corr == nil {
		p.Corr = agg.NewSketch(0)
	}
	for _, a := range run {
		p.Add(a)
		p.Corr.Add(float64(a.UserNS + a.SDIONS + a.PSMNS))
	}
	p.Epoch += int64(len(run))
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
	// Both profiles hold the coverage invariant (see Validate), so a
	// profile without a sketch has no attributions to merge.
	switch {
	case o.Corr == nil || o.Corr.Count == 0:
	case p.Corr == nil:
		p.Corr = o.Corr.Clone()
	default:
		p.Corr.Merge(o.Corr)
	}
	p.Overheads.Merge(&o.Overheads)
}

// Clone returns a deep copy (the sketch is the only shared pointer).
func (p *DeviceProfile) Clone() DeviceProfile {
	c := *p
	c.Corr = p.Corr.Clone()
	return c
}

// Validate rejects profiles that would poison the store: a calibrated
// entry must satisfy the registry invariants, moment counts must be
// consistent, and a profile with attributions must carry a valid
// correction sketch covering every one (agg.CheckCoverage) — a profile
// written before sketches existed is refused, not merged in degraded
// form.
func (p *DeviceProfile) Validate() error {
	if p.Model == "" {
		return fmt.Errorf("puncture: profile without model")
	}
	if p.Calibrated() {
		if err := p.CalEntry.Validate(); err != nil {
			return err
		}
	}
	if err := p.check(); err != nil {
		return fmt.Errorf("puncture: %s: %w", p.Model, err)
	}
	// A calibration-only profile has no correction track.
	if p.Sessions() > 0 || p.Corr != nil {
		if err := agg.CheckCoverage(p.Sessions(), p.Corr); err != nil {
			return fmt.Errorf("puncture: %s: correction_sketch: %w", p.Model, err)
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
	Overheads
}

// addRun folds a run of attributing sessions in, one epoch each.
func (f *FamilyProfile) addRun(run []Attribution) {
	for _, a := range run {
		f.Add(a)
	}
	f.Epoch += int64(len(run))
}

// Merge folds another family aggregate in.
func (f *FamilyProfile) Merge(o *FamilyProfile) {
	if o == nil {
		return
	}
	f.Epoch += o.Epoch
	f.Overheads.Merge(&o.Overheads)
}

// Validate rejects inconsistent family aggregates.
func (f *FamilyProfile) Validate() error {
	if err := f.check(); err != nil {
		return fmt.Errorf("puncture: family %q: %w", f.Chipset, err)
	}
	if f.Epoch < 0 {
		return fmt.Errorf("puncture: family %q: negative epoch", f.Chipset)
	}
	return nil
}
