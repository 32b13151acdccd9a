package core

import (
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/puncture"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func TestCalibrateTipNexus4(t *testing.T) {
	tb := newTB(20, "Google Nexus 4", 30*time.Millisecond)
	cal := Calibrate(tb, CalibrateOptions{})
	if len(cal.TipSamples) < 4 {
		t.Fatalf("Tip samples = %d", len(cal.TipSamples))
	}
	got := stats.Millis(cal.Tip)
	// Table 4: Nexus 4 Tip ≈ 40ms (the model jitters ±14ms, and the
	// null frame rides the medium, so allow a wide but centred band).
	if got < 24 || got > 58 {
		t.Errorf("Tip = %.1fms, want ≈40ms", got)
	}
}

func TestCalibrateTipNexus5(t *testing.T) {
	tb := newTB(21, "Google Nexus 5", 30*time.Millisecond)
	cal := Calibrate(tb, CalibrateOptions{})
	got := stats.Millis(cal.Tip)
	if got < 185 || got > 225 {
		t.Errorf("Tip = %.1fms, want ≈205ms (Table 4)", got)
	}
}

func TestCalibrateTisDetectsBusSleep(t *testing.T) {
	tb := newTB(22, "Google Nexus 5", 20*time.Millisecond)
	cal := Calibrate(tb, CalibrateOptions{})
	got := stats.Millis(cal.Tis)
	// Bus demotion fires 50-60ms after activity; the knee appears once
	// the pre-probe idle gap crosses it.
	if got < 30 || got > 90 {
		t.Errorf("Tis = %.1fms, want ≈50-70ms", got)
	}
}

func TestCalibrateTisUndetectableWhenDisabled(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.Seed = 23
	cfg.DisableBusSleep = true
	cfg.EmulatedRTT = 20 * time.Millisecond
	tb := testbed.New(cfg)
	cal := Calibrate(tb, CalibrateOptions{})
	if cal.Tis != 0 {
		t.Errorf("Tis = %v with bus sleep disabled, want 0", cal.Tis)
	}
}

func TestRecommendationRespectsInvariant(t *testing.T) {
	for _, phone := range []string{"Google Nexus 4", "Google Nexus 5", "Samsung Grand"} {
		tb := newTB(24, phone, 30*time.Millisecond)
		cal := Calibrate(tb, CalibrateOptions{})
		min := effectiveMinTimer(tb.Phone)
		if cal.RecommendedInterval >= min {
			t.Errorf("%s: recommended db %v >= min(Tis,Tip) %v", phone, cal.RecommendedInterval, min)
		}
		if cal.RecommendedWarmup < 5*time.Millisecond {
			t.Errorf("%s: dpre %v below promotion delay budget", phone, cal.RecommendedWarmup)
		}
	}
}

func TestCalibrateIntoBuildsDatabase(t *testing.T) {
	st := puncture.NewStore(0)
	for _, phone := range []string{"Google Nexus 4", "Google Nexus 5"} {
		tb := newTB(int64(len(phone)), phone, 30*time.Millisecond)
		e, err := CalibrateInto(st, tb, CalibrateOptions{TipRounds: 4, PairsPerGap: 3})
		if err != nil {
			t.Fatalf("%s: %v", phone, err)
		}
		if e.Samples < 3 {
			t.Errorf("%s: only %d Tip samples", phone, e.Samples)
		}
		if got, ok := st.Calibration(phone); !ok || got != e {
			t.Errorf("%s: stored %+v, returned %+v", phone, got, e)
		}
	}
	if n := st.CalibratedLen(); n != 2 {
		t.Fatalf("store has %d calibrations", n)
	}
	// The database then drives a measurement without re-calibrating.
	tb := newTB(99, "Google Nexus 4", 60*time.Millisecond)
	e, ok := st.Calibration("Google Nexus 4")
	if !ok {
		t.Fatal("no stored calibration for Nexus 4")
	}
	tb.Sim.RunUntil(300 * time.Millisecond)
	res := New(tb, Config{K: 30, WarmupDelay: e.Warmup, BackgroundInterval: e.Interval}).Run()
	if len(res.Sample()) < 27 {
		t.Fatalf("completed %d/30", len(res.Sample()))
	}
	med := res.Sample().Median()
	if med < 60*time.Millisecond || med > 66*time.Millisecond {
		t.Fatalf("median = %v, want ≈61-64ms (no PSM inflation)", med)
	}
}

// effectiveMinTimer is a helper used by tests to cross-check the
// calibration against the phone's configured timers.
func effectiveMinTimer(phone *android.Phone) time.Duration {
	tip := phone.Profile.PSMTimeout
	tis := phone.Drv.Bus().IdlePeriod()
	if tis < tip {
		return tis
	}
	return tip
}
