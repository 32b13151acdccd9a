package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/puncture"
)

// TestAttributionJSONGolden pins, byte for byte, every JSON body that
// serializes the user/SDIO/PSM overhead moments: a knowledge snapshot
// (device, family and global rungs), a fleet report and a store cell.
// The knowledge store is taught by a seeded one-worker campaign
// (session.FeedKnowledge), by single attributing summaries, by
// same-chipset runs and by a chipset-divergent run, so both teach paths
// and the per-summary fallback feed it. The digests were recorded while
// each aggregate still declared the three moments itself.
func TestAttributionJSONGolden(t *testing.T) {
	want := map[string]string{
		"snapshot": "6bbe5e1647ec432680903414e53beb5ca24d0e5808c34b28bfb0a0985278690b",
		"report":   "65b285725f0971af202c49b04c321ee371e9572a861c45f22fd4c05ecf584267",
		"cells":    "daeda3428b8aa060a228e5ed73443d1b8a25bc6617427e7a2ebe2d5e85ccb0a6",
	}
	ms := int64(time.Millisecond)
	sc, _ := fleet.ScenarioByName("device-mix")
	know := puncture.NewStore(4)
	rep, err := fleet.RunContext(context.Background(), fleet.Campaign{
		Name: "golden", Scenario: "device-mix", Seed: 7, Workers: 1,
		Sessions: sc.Build(fleet.Params{Sessions: 6, Seed: 7, Probes: 10}),
		Profiles: know,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Wall = 0

	p := NewPuncturerStore(know)
	sum := func(dev, chip string, i int64) Summary {
		return Summary{Device: dev, Chipset: chip, LayersOK: true,
			UserOverheadNS: 2*ms + i*ms/7, SDIOOverheadNS: ms - i*ms/11, PSMInflationNS: -ms/3 + i*ms/5}
	}
	for i := int64(0); i < 4; i++ {
		s := sum("Golden One", "bcm4339", i)
		p.Correction(&s)
	}
	var atts []puncture.Attribution
	for _, run := range [][]Summary{
		{sum("Golden Two", "wcn3680", 1), sum("Golden Two", "wcn3680", 2), sum("Golden Two", "wcn3680", 3)},
		{sum("Golden Three", "", 4), sum("Golden Three", "bcm4339", 5)},
		{{Device: "Golden Blind", Chipset: "wcn3680"}, sum("Golden Blind", "wcn3680", 6)},
	} {
		corrs := make([]time.Duration, len(run))
		srcs := make([]CorrectionSource, len(run))
		atts = p.CorrectionRun(run, corrs, srcs, atts)
	}
	var snap bytes.Buffer
	if err := know.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	report, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := json.Marshal(goldenStatsStore(t, true).Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for name, b := range map[string][]byte{
		"snapshot": snap.Bytes(), "report": report, "cells": cells,
	} {
		got[name] = fmt.Sprintf("%x", sha256.Sum256(b))
		if got[name] != want[name] {
			t.Errorf("%s digest %s, want %s", name, got[name], want[name])
		}
	}
}
