package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

// TestLoadgenCampaignOwnsItsStore: with -registry, the loadgen
// campaign reads calibrations from its own copy of the file, so the
// server's store learns each streamed attribution exactly once (from
// ingest) and the campaign's reads leave its counts unchanged.
func TestLoadgenCampaignOwnsItsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	reg := puncture.NewStore(0)
	for _, prof := range android.Profiles() {
		if err := reg.RecordCalibration(puncture.CalEntry{
			Model: prof.Model, Tip: 40 * time.Millisecond, Warmup: 15 * time.Millisecond, Interval: 15 * time.Millisecond, Samples: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.SaveCalibrationsFile(path); err != nil {
		t.Fatal(err)
	}

	srv, err := ingest.Start(ingest.Config{Window: -1, Profiles: loadRegistry(path)})
	if err != nil {
		t.Fatal(err)
	}
	campaign := loadgenCampaign(loadgenSpec{
		scenario: "device-mix", sessions: 20, workers: 2, probes: 8,
		rtt: 30 * time.Millisecond, seed: 3, registry: path,
	})
	if campaign.Profiles == nil || campaign.Profiles == srv.Puncturer().Store() {
		t.Fatal("loadgen campaign must read calibrations from its own store")
	}
	lg := &ingest.LoadGen{URL: srv.URL(), Wire: ingest.WireBinary, BatchSize: 5, TimeMS: 1}
	defer lg.Close()
	rep, err := lg.StreamCampaign(context.Background(), campaign)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var calibrated int64
	for _, g := range rep.Groups {
		calibrated += g.CalibratedSessions
	}
	if calibrated != rep.Sessions {
		t.Errorf("%d/%d sessions measured with stored calibrations", calibrated, rep.Sessions)
	}
	var serverAtts, campaignAtts int64
	for _, p := range srv.Puncturer().Store().Profiles() {
		serverAtts += p.AttributionSessions()
	}
	for _, p := range campaign.Profiles.Profiles() {
		campaignAtts += p.AttributionSessions()
	}
	if serverAtts != rep.Sessions {
		t.Errorf("server store learned %d attributions for %d streamed sessions", serverAtts, rep.Sessions)
	}
	if campaignAtts != rep.Sessions {
		t.Errorf("campaign store learned %d attributions for %d sessions", campaignAtts, rep.Sessions)
	}
}
