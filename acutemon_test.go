package acutemon

import (
	"context"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Seed = 11
	cfg.EmulatedRTT = 50 * time.Millisecond
	tb := NewTestbed(cfg)
	tb.Sim.RunUntil(300 * time.Millisecond)
	sess, err := Run(context.Background(), SessionSpec{Backend: "sim", Method: "acutemon", Testbed: tb, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Raw.(*Result)
	if len(res.Sample()) < 45 {
		t.Fatalf("completed %d/50", len(res.Sample()))
	}
	med := stats.Millis(res.Sample().Median())
	if med < 50 || med > 55 {
		t.Fatalf("median = %.2fms, want ≈51", med)
	}
	duk, dkn := Overheads(tb, res)
	if total := stats.Millis(duk.Median() + dkn.Median()); total > 3 {
		t.Fatalf("median overhead = %.2fms", total)
	}
}

func TestFacadeProfiles(t *testing.T) {
	if len(Profiles()) != 5 {
		t.Fatal("Profiles() should list the five Table 1 phones")
	}
	if _, ok := ProfileByName("Nexus 5"); !ok {
		t.Fatal("ProfileByName failed")
	}
}

func TestFacadeTools(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Seed = 12
	tb := NewTestbed(cfg)
	sess, err := Run(context.Background(), SessionSpec{
		Backend: "sim", Method: "ping", Testbed: tb, K: 20, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Raw.(*ToolResult)
	if len(res.Sample()) < 18 {
		t.Fatalf("ping completed %d/20", len(res.Sample()))
	}
	du, dk, dn := ToolLayerSamples(tb, res)
	if len(du) == 0 || len(dk) == 0 || len(dn) == 0 {
		t.Fatal("layer samples missing")
	}
}

func TestFacadeCalibrate(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Seed = 13
	tb := NewTestbed(cfg)
	cal := Calibrate(tb, CalibrateOptions{TipRounds: 4, PairsPerGap: 3})
	if cal.Tip <= 0 {
		t.Fatal("calibration found no Tip")
	}
}

func TestFacadeLive(t *testing.T) {
	srv, err := StartLiveServers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Run(context.Background(), SessionSpec{
		Backend: "live", Method: "acutemon",
		Target: srv.Addr(), K: 5, WarmupAddr: srv.Addr(),
		WarmupDelay: 5 * time.Millisecond, BackgroundInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample()) != 5 {
		t.Fatalf("completed %d/5", len(res.Sample()))
	}
}
