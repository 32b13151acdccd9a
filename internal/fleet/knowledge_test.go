package fleet

import (
	"context"
	"testing"

	"repro/internal/puncture"
)

// TestCampaignTeachesProfiles: a campaign with a Profiles store emits a
// device-knowledge delta — learned overheads for every attributing
// model (chipset-family keyed) plus the auto-calibrations, all in one
// store a live ingestd can absorb via Store.Merge.
func TestCampaignTeachesProfiles(t *testing.T) {
	c := smallCampaign(4)
	c.Profiles = puncture.NewStore(0)
	c.AutoCalibrate = true
	rep, err := RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d sessions errored", rep.Errors)
	}
	st := c.Profiles
	if st.Len() == 0 {
		t.Fatal("campaign taught nothing")
	}
	// The device-mix scenario runs the paper's five models; every one
	// should have attributed (sim sessions always extract layers) and —
	// with AutoCalibrate — been calibrated into the same store.
	if got := st.CalibratedLen(); got != len(rep.CalibratedModels) || got == 0 {
		t.Fatalf("calibrated %d models in store, report says %v", got, rep.CalibratedModels)
	}
	var attributions int64
	for _, p := range st.Profiles() {
		if p.Chipset == "" {
			t.Errorf("%s: profile without chipset-family key", p.Model)
		}
		attributions += p.Sessions()
		if p.Sessions() > 0 {
			if corr, src := st.Resolve(p.Model, ""); src != puncture.SourceLearned || corr < 0 {
				t.Errorf("%s: resolve %v/%v", p.Model, corr, src)
			}
		}
	}
	if attributions != rep.Sessions {
		t.Fatalf("%d attributions for %d sessions", attributions, rep.Sessions)
	}
	// The global prior saw the same stream.
	if g := st.Global(); g.Sessions() != rep.Sessions {
		t.Fatalf("global prior sessions %d != %d", g.Sessions(), rep.Sessions)
	}

	// The delta merges into a fresh (ingestd-side) store.
	live := puncture.NewStore(0)
	if err := live.Merge(st); err != nil {
		t.Fatal(err)
	}
	if live.Len() != st.Len() || live.CalibratedLen() != st.CalibratedLen() {
		t.Fatalf("merge lost knowledge: %d/%d vs %d/%d",
			live.Len(), live.CalibratedLen(), st.Len(), st.CalibratedLen())
	}
}
