package ingest

import (
	"sort"
	"time"

	"repro/internal/puncture"
)

// CorrectionSource says where a summary's puncturing correction came
// from. It is the shared puncture.Source ladder — the ingest-local enum
// this used to be is gone, so fleet reports, ingest cells, and the
// knowledge store all speak one provenance vocabulary.
type CorrectionSource = puncture.Source

const (
	// SourceNone: nothing known about the model, its chipset family, or
	// the fleet at large; raw == corrected.
	SourceNone = puncture.SourceNone
	// SourceReported: the device shipped its own layer attribution
	// (Δdu−k, Δdk−n, PSM share) and the correction is its session means.
	SourceReported = puncture.SourceReported
	// SourceLearned: the correction is the model-level profile learned
	// from attributing peers of the same model.
	SourceLearned = puncture.SourceLearned
	// SourceFamily: the model is unknown but its WiFi chipset family
	// has attributing members; their aggregate corrects.
	SourceFamily = puncture.SourceFamily
	// SourceGlobal: model and family unknown; the global prior over
	// every attributing session corrects.
	SourceGlobal = puncture.SourceGlobal
)

// ModelOverhead is the learned per-model inflation profile served under
// /models — a compatibility projection of the knowledge store's
// DeviceProfile (which /v1/profiles serves whole).
type ModelOverhead struct {
	Model string `json:"model"`
	puncture.Overheads
}

// DefaultPunctureShards matches the knowledge store's striping default.
const DefaultPunctureShards = puncture.DefaultShards

// Puncturer turns raw reported RTTs into punctured ones. It rides the
// unified device-knowledge store: sessions that can attribute their own
// inflation teach the store, and sessions that cannot are corrected by
// walking its resolution ladder (learned model profile → chipset-family
// fallback → global prior). The same store carries the calibration
// database (which models have server-side Tis/Tip entries — the paper's
// §4.1 configuration store), so learned knowledge persists wherever the
// store is snapshotted.
type Puncturer struct {
	store *puncture.Store
}

// NewPuncturerStore builds a puncturer over an existing knowledge
// store (nil builds a fresh default store).
func NewPuncturerStore(st *puncture.Store) *Puncturer {
	if st == nil {
		st = puncture.NewStore(0)
	}
	return &Puncturer{store: st}
}

// Store exposes the backing device-knowledge store.
func (p *Puncturer) Store() *puncture.Store { return p.store }

// attribution returns the summary's reported overhead shares.
func (s *Summary) attribution() puncture.Attribution {
	return puncture.Attribution{UserNS: s.UserOverheadNS, SDIONS: s.SDIOOverheadNS, PSMNS: s.PSMInflationNS}
}

// reported returns an attributing summary's own correction — its three
// overhead shares summed, clamped at ≥ 0 — and the attribution it
// teaches the store. It never reads the store.
func reported(s *Summary) (time.Duration, puncture.Attribution) {
	a := s.attribution()
	return max(time.Duration(a.UserNS+a.SDIONS+a.PSMNS), 0), a
}

// Correction computes the summary's per-probe puncturing correction
// and, when the summary carries its own attribution, folds that
// attribution into the store (model profile, chipset family, global
// prior). The result is clamped at ≥ 0 on every rung, so an
// over-learned correction can never mint negative latencies.
func (p *Puncturer) Correction(s *Summary) (time.Duration, CorrectionSource) {
	if !s.LayersOK {
		return p.store.Resolve(s.Device, s.Chipset)
	}
	corr, a := reported(s)
	p.store.RecordAttribution(s.Device, s.Chipset, a.UserNS, a.SDIONS, a.PSMNS)
	p.store.CountReported(1)
	return corr, SourceReported
}

// CorrectionRun resolves corrections for one same-cell run, filling
// corrs and srcs (both len(rs)). When every summary in the run ships
// its own attribution for one chipset — the common case, since a run
// shares one device — the knowledge-store teaching happens under one
// lock round via RecordAttributionRun. That regrouping cannot change
// any observable fold: a reported correction is computed from the
// summary alone, never read from the store, so no correction in this
// run (or any later run, which still sees every write) depends on the
// writes' interleaving. A run with any non-attributing or
// chipset-divergent summary falls back to the per-summary path,
// preserving the serial teach/resolve interleaving those folds are
// order-dependent on. atts is caller scratch; the (possibly grown)
// slice is returned for reuse.
func (p *Puncturer) CorrectionRun(rs []Summary, corrs []time.Duration, srcs []CorrectionSource, atts []puncture.Attribution) []puncture.Attribution {
	for i := range rs {
		if !rs[i].LayersOK || rs[i].Chipset != rs[0].Chipset {
			for j := range rs {
				corrs[j], srcs[j] = p.Correction(&rs[j])
			}
			return atts
		}
	}
	atts = atts[:0]
	for i := range rs {
		corr, a := reported(&rs[i])
		corrs[i], srcs[i] = corr, SourceReported
		atts = append(atts, a)
	}
	p.store.RecordAttributionRun(rs[0].Device, rs[0].Chipset, atts)
	p.store.CountReported(int64(len(rs)))
	return atts
}

// Overheads snapshots the learned table, sorted by model — the /models
// compatibility projection (models that only have calibrations, never
// attributions, are omitted, matching the historic learned table).
func (p *Puncturer) Overheads() []ModelOverhead {
	profiles := p.store.Profiles()
	out := make([]ModelOverhead, 0, len(profiles))
	for i := range profiles {
		dp := &profiles[i]
		if dp.Sessions() == 0 {
			continue
		}
		out = append(out, ModelOverhead{Model: dp.Model, Overheads: dp.Overheads})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}
