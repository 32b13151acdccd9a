// Package ingest is the crowd-scale collection half of the repository:
// a service that accepts per-session measurement summaries from many
// phones at once, *punctures* every reported RTT online (de-inflates it
// by subtracting the calibrated user-space, host-bus, and PSM
// overheads the paper attributes in §3), and folds raw and corrected
// observations side by side into a lock-striped, time-windowed store of
// mergeable aggregates served over HTTP.
//
// The fleet package simulates the million phones; ingest is the server
// they report to. A load-generator mode wires fleet campaign sessions
// through the real wire protocol, so a seeded campaign streamed over
// loopback reproduces the offline campaign report exactly — the
// end-to-end determinism check that keeps both halves honest.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/agg"
)

// Summary is the wire record one device posts per finished measurement
// session: identification, the raw per-probe user-level RTTs, and the
// device's own layer attribution when it could extract one. The
// encoding is JSON lines — one object per line, batched per POST — the
// format crowdsourced collectors (MopEye-style) ship.
type Summary struct {
	// Device is the phone model (Table 1 name); required.
	Device string `json:"device"`
	// Chipset optionally names the device's WiFi chipset family. When
	// the model itself is unknown to the knowledge store, the family
	// aggregate learned from chipset siblings corrects the session (the
	// resolution ladder's third rung).
	Chipset string `json:"chipset,omitempty"`
	// Group is the aggregation label; "" defaults to Device.
	Group string `json:"group,omitempty"`
	// Scenario names the campaign or deployment arm the session ran in.
	Scenario string `json:"scenario,omitempty"`
	// TimeMS is the session's event time (Unix ms); 0 lets the server
	// stamp arrival time.
	TimeMS int64 `json:"time_ms,omitempty"`

	// RTTs are the raw user-level per-probe RTT observations (ns).
	RTTs []int64 `json:"rtts_ns"`
	// Sketch optionally carries a device-built quantile sketch of the
	// session's user-level RTTs (ns) instead of the raw observations —
	// the record a long-running or bandwidth-constrained collector ships
	// when retaining every probe is not affordable. Mutually exclusive
	// with RTTs; the server merges it into the cell's raw sketch and
	// shifts a punctured copy by the session's correction.
	Sketch *agg.Sketch `json:"sketch,omitempty"`
	// Sent / Lost account for all probes, including unanswered ones.
	Sent int `json:"sent"`
	Lost int `json:"lost"`
	// BackgroundSent counts the TTL=1 wake-keeping packets.
	BackgroundSent int `json:"background_sent,omitempty"`

	// EmulatedRTTNS is the known path RTT for testbed sessions (0 in the
	// wild); Inflation is mean(du) ÷ path RTT when known.
	EmulatedRTTNS int64   `json:"emulated_rtt_ns,omitempty"`
	Inflation     float64 `json:"inflation,omitempty"`

	// LayersOK reports the device extracted per-layer attribution; the
	// three overheads below are its session means (ns).
	LayersOK       bool  `json:"layers_ok,omitempty"`
	UserOverheadNS int64 `json:"user_overhead_ns,omitempty"`
	SDIOOverheadNS int64 `json:"sdio_overhead_ns,omitempty"`
	PSMInflationNS int64 `json:"psm_inflation_ns,omitempty"`

	// PSMActive reports power-save activity during the session.
	PSMActive bool `json:"psm_active,omitempty"`
	// Calibrated reports the device measured with registry-supplied
	// dpre/db (an AcuteMon-style punctured measurement at the source).
	Calibrated bool `json:"calibrated,omitempty"`
}

// GroupLabel returns the aggregation label, defaulting to the device
// model like fleet sessions do.
func (s *Summary) GroupLabel() string {
	if s.Group != "" {
		return s.Group
	}
	return s.Device
}

// Wire sanity caps; a single phone session never legitimately exceeds
// them, so anything larger is a malformed or hostile batch. Key strings
// are bounded because every distinct (device, group, scenario) mints a
// store cell — unbounded names would let one client mint unbounded
// aggregation state.
const (
	maxRTTsPerSummary  = 1 << 16
	maxCountPerSummary = 1 << 20
	maxRTTNS           = int64(10 * time.Minute)
	maxKeyLen          = 200
)

// Validate rejects records that would poison the aggregates.
func (s *Summary) Validate() error {
	if s.Device == "" {
		return errors.New("ingest: summary without device model")
	}
	if len(s.Device) > maxKeyLen || len(s.Group) > maxKeyLen ||
		len(s.Scenario) > maxKeyLen || len(s.Chipset) > maxKeyLen {
		return fmt.Errorf("ingest: %.32s…: key field exceeds %d bytes", s.Device, maxKeyLen)
	}
	if s.Sent < 0 || s.Lost < 0 || s.Lost > s.Sent || s.Sent > maxCountPerSummary {
		return fmt.Errorf("ingest: %s: inconsistent sent/lost %d/%d", s.Device, s.Sent, s.Lost)
	}
	if s.BackgroundSent < 0 || s.BackgroundSent > maxCountPerSummary {
		return fmt.Errorf("ingest: %s: background count %d out of range", s.Device, s.BackgroundSent)
	}
	if s.EmulatedRTTNS < 0 || s.EmulatedRTTNS > maxRTTNS {
		return fmt.Errorf("ingest: %s: emulated RTT %dns out of range", s.Device, s.EmulatedRTTNS)
	}
	// Overheads are session means of RTT-scale quantities; anything
	// outside ±maxRTTNS would poison the learned per-model corrections
	// (PSM share may legitimately be slightly negative).
	for _, v := range [...]int64{s.UserOverheadNS, s.SDIOOverheadNS, s.PSMInflationNS} {
		if v > maxRTTNS || v < -maxRTTNS {
			return fmt.Errorf("ingest: %s: overhead %dns out of range", s.Device, v)
		}
	}
	if len(s.RTTs) > maxRTTsPerSummary {
		return fmt.Errorf("ingest: %s: %d RTTs exceeds per-session cap %d", s.Device, len(s.RTTs), maxRTTsPerSummary)
	}
	if len(s.RTTs) > s.Sent {
		return fmt.Errorf("ingest: %s: %d RTTs for %d sent probes", s.Device, len(s.RTTs), s.Sent)
	}
	for _, v := range s.RTTs {
		if v < 0 || v > maxRTTNS {
			return fmt.Errorf("ingest: %s: RTT %dns out of range", s.Device, v)
		}
	}
	if s.Sketch != nil {
		if len(s.RTTs) > 0 {
			return fmt.Errorf("ingest: %s: summary carries both raw RTTs and a sketch", s.Device)
		}
		if err := s.Sketch.Valid(); err != nil {
			return fmt.Errorf("ingest: %s: %w", s.Device, err)
		}
		if s.Sketch.Count > int64(s.Sent) {
			return fmt.Errorf("ingest: %s: sketch of %d RTTs for %d sent probes", s.Device, s.Sketch.Count, s.Sent)
		}
		if s.Sketch.Count > 0 && (s.Sketch.MinV < 0 || s.Sketch.MaxV > float64(maxRTTNS)) {
			return fmt.Errorf("ingest: %s: sketch values outside [0,%dns]", s.Device, maxRTTNS)
		}
	}
	return nil
}

// DecodeBatch parses a JSON-lines batch (whitespace-separated JSON
// objects; a trailing newline is optional) and validates every record.
// maxSummaries <= 0 means unlimited.
func DecodeBatch(r io.Reader, maxSummaries int) ([]Summary, error) {
	dec := json.NewDecoder(r)
	var out []Summary
	for {
		var s Summary
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out)+1, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out)+1, err)
		}
		out = append(out, s)
		if maxSummaries > 0 && len(out) > maxSummaries {
			return nil, fmt.Errorf("ingest: batch exceeds %d summaries", maxSummaries)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	return out, nil
}

// EncodeBatch writes summaries as JSON lines — the exact bytes a device
// puts on the wire.
func EncodeBatch(w io.Writer, batch []Summary) error {
	enc := json.NewEncoder(w)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}
