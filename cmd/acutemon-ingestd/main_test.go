package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/android"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/puncture"
)

// TestLoadgenCampaignOwnsItsStore: with -profiles, the loadgen
// campaign reads calibrations from its own copy of the file, so the
// server's store learns each streamed attribution exactly once (from
// ingest) and the campaign's reads leave its counts unchanged.
func TestLoadgenCampaignOwnsItsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knowledge.json")
	know := puncture.NewStore(0)
	for _, prof := range android.Profiles() {
		if err := know.RecordCalibration(puncture.CalEntry{
			Model: prof.Model, Tip: 40 * time.Millisecond, Warmup: 15 * time.Millisecond, Interval: 15 * time.Millisecond, Samples: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := know.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	srv, err := ingest.Start(ingest.Config{Window: -1, ProfilesPath: path})
	if err != nil {
		t.Fatal(err)
	}
	campaign := loadgenCampaign(loadgenSpec{
		scenario: "device-mix", sessions: 20, workers: 2, probes: 8,
		rtt: 30 * time.Millisecond, seed: 3, profiles: path,
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
		serverAtts += p.Sessions()
	}
	for _, p := range campaign.Profiles.Profiles() {
		campaignAtts += p.Sessions()
	}
	if serverAtts != rep.Sessions {
		t.Errorf("server store learned %d attributions for %d streamed sessions", serverAtts, rep.Sessions)
	}
	if campaignAtts != rep.Sessions {
		t.Errorf("campaign store learned %d attributions for %d sessions", campaignAtts, rep.Sessions)
	}
}

// TestLoadgenLeavesProfilesFile: -loadgen -profiles F reads F but never
// writes it; the embedded server's synthetic attributions stay in
// memory.
func TestLoadgenLeavesProfilesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knowledge.json")
	know := puncture.NewStore(0)
	for _, prof := range android.Profiles() {
		if err := know.RecordCalibration(puncture.CalEntry{
			Model: prof.Model, Tip: 40 * time.Millisecond, Warmup: 15 * time.Millisecond, Interval: 15 * time.Millisecond, Samples: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := know.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runLoadgen(context.Background(), ingest.Config{ProfilesPath: path, ProfilesInterval: -1}, loadgenSpec{
		scenario: "device-mix", sessions: 12, workers: 2, probes: 8,
		rtt: 30 * time.Millisecond, seed: 3, batch: 4, wire: ingest.WireBinary, profiles: path,
	})
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("-loadgen rewrote the -profiles file (%d bytes → %d)", len(before), len(after))
	}
}

// TestDecodeReportRefusesPreSketch: -replay refuses a report file whose
// group has no du_sketch (written before sketches existed), naming the
// group, and reads a current report.
func TestDecodeReportRefusesPreSketch(t *testing.T) {
	encode := func(sketched bool) string {
		g := &fleet.GroupAggregate{Label: "old-group", Sessions: 1, DuHist: agg.NewDurationHist()}
		if sketched {
			g.DuSketch = agg.NewSketch(0)
			g.DuSketch.AddDuration(600 * time.Millisecond)
		}
		g.Du.Add(float64(600 * time.Millisecond))
		g.DuHist.Add(600 * time.Millisecond)
		b, err := json.Marshal(&fleet.Report{Name: "r", Groups: []*fleet.GroupAggregate{g}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := decodeReport(strings.NewReader(encode(true))); err != nil {
		t.Fatalf("current report refused: %v", err)
	}
	old := encode(false)
	if strings.Contains(old, "du_sketch") {
		t.Fatalf("pre-sketch report carries a sketch: %s", old)
	}
	if _, err := decodeReport(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "old-group") {
		t.Fatalf("pre-sketch report: err = %v, want an error naming the group", err)
	}
}

// TestDecodeReportRefusesForeignHistGeometry: a -replay report whose
// du_hist names another lo_ns, hi_ns or bin count is refused at decode.
func TestDecodeReportRefusesForeignHistGeometry(t *testing.T) {
	g := &fleet.GroupAggregate{Label: "g", Sessions: 1, DuHist: agg.NewDurationHist(), DuSketch: agg.NewSketch(0)}
	g.Du.Add(float64(30 * time.Millisecond))
	g.DuHist.Add(30 * time.Millisecond)
	g.DuSketch.AddDuration(30 * time.Millisecond)
	b, err := json.Marshal(&fleet.Report{Name: "r", Groups: []*fleet.GroupAggregate{g}})
	if err != nil {
		t.Fatal(err)
	}
	raw := string(b)
	if _, err := decodeReport(strings.NewReader(raw)); err != nil {
		t.Fatalf("current report refused: %v", err)
	}
	for _, edit := range [][2]string{
		{`"lo_ns":0`, `"lo_ns":-1000000`},
		{`"hi_ns":500000000`, `"hi_ns":1000000000`},
		{`"counts":[`, `"counts":[0,`},
	} {
		if strings.Count(raw, edit[0]) != 1 {
			t.Fatalf("%q is not in the report exactly once", edit[0])
		}
		if _, err := decodeReport(strings.NewReader(strings.Replace(raw, edit[0], edit[1], 1))); err == nil {
			t.Errorf("report edited %q → %q decoded", edit[0], edit[1])
		}
	}
}
