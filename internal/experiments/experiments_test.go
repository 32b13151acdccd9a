package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/stats"
)

func quick() Options { return Options{Seed: 7, Probes: 30, Quick: true} }

// TestWorkersDontChangeResults pins the fleet.Map contract at the suite
// level: cells are independently seeded, so the worker count must not
// alter a single sample.
func TestWorkersDontChangeResults(t *testing.T) {
	serial := quick()
	serial.Workers = 1
	parallel := quick()
	parallel.Workers = 4

	a := Table2Run(serial)
	b := Table2Run(parallel)
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Phone != b[i].Phone || a[i].RTT != b[i].RTT || a[i].Interval != b[i].Interval {
			t.Fatalf("cell %d specs diverge", i)
		}
		if len(a[i].Du) != len(b[i].Du) {
			t.Fatalf("cell %d: du lengths differ", i)
		}
		for j := range a[i].Du {
			if a[i].Du[j] != b[i].Du[j] {
				t.Fatalf("cell %d sample %d: %v vs %v", i, j, a[i].Du[j], b[i].Du[j])
			}
		}
	}
}

func cellFor(t *testing.T, cells []Table2Cell, phone string, rtt, interval time.Duration) Table2Cell {
	t.Helper()
	for _, c := range cells {
		if c.Phone == phone && c.RTT == rtt && c.Interval == interval {
			return c
		}
	}
	t.Fatalf("cell %s/%v/%v missing", phone, rtt, interval)
	return Table2Cell{}
}

func TestTable1ListsFivePhones(t *testing.T) {
	out := Table1()
	for _, phone := range AllPhones {
		if !strings.Contains(out, phone) {
			t.Errorf("Table 1 missing %s:\n%s", phone, out)
		}
	}
	for _, chip := range []string{"BCM4339", "WCN3660", "WCN3680", "BCM4330", "BCM4329"} {
		if !strings.Contains(out, chip) {
			t.Errorf("Table 1 missing chipset %s", chip)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	cells := Table2Run(quick())
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	ms := func(s stats.Sample) float64 { return stats.Millis(s.Mean()) }

	// Fast interval: all three layers close to the emulated value.
	n5fast := cellFor(t, cells, "Google Nexus 5", 30*time.Millisecond, 10*time.Millisecond)
	if du := ms(n5fast.Du); du < 31 || du > 36 {
		t.Errorf("N5@30/10ms du = %.2f, want ≈33.4", du)
	}
	// Slow interval on N5: internal inflation, dn clean.
	n5slow := cellFor(t, cells, "Google Nexus 5", 30*time.Millisecond, time.Second)
	if du := ms(n5slow.Du); du < 38 || du > 48 {
		t.Errorf("N5@30/1s du = %.2f, want ≈43.2", du)
	}
	if dn := ms(n5slow.Dn); dn < 30 || dn > 34 {
		t.Errorf("N5@30/1s dn = %.2f, want ≈31.8", dn)
	}
	// Slow interval on N4 at 60ms: network-side inflation dominates.
	n4slow := cellFor(t, cells, "Google Nexus 4", 60*time.Millisecond, time.Second)
	if dn := ms(n4slow.Dn); dn < 95 || dn > 165 {
		t.Errorf("N4@60/1s dn = %.2f, want ≈130", dn)
	}
	if du := ms(n4slow.Du); du < ms(n4slow.Dn) {
		t.Errorf("N4@60/1s du (%.2f) below dn (%.2f)", du, ms(n4slow.Dn))
	}
	out := RenderTable2(cells)
	if !strings.Contains(out, "du") || !strings.Contains(out, "±") {
		t.Error("Table 2 render malformed")
	}
}

func TestTable3Shape(t *testing.T) {
	cells := Table3Run(quick())
	if len(cells) != 8 {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(kind string, sleep bool, interval time.Duration) stats.Sample {
		for _, c := range cells {
			if c.Kind == kind && c.BusSleep == sleep && c.Interval == interval {
				return c.Sample
			}
		}
		t.Fatalf("missing %s/%v/%v", kind, sleep, interval)
		return nil
	}
	// The four headline contrasts of Table 3.
	if m := stats.Millis(get("dvsend", true, time.Second).Mean()); m < 8.5 || m > 11.5 {
		t.Errorf("dvsend enabled@1s = %.2f, want ≈10.15", m)
	}
	if m := stats.Millis(get("dvsend", true, 10*time.Millisecond).Mean()); m > 0.8 {
		t.Errorf("dvsend enabled@10ms = %.2f, want ≈0.32", m)
	}
	if m := stats.Millis(get("dvsend", false, time.Second).Mean()); m < 0.4 || m > 1.2 {
		t.Errorf("dvsend disabled@1s = %.2f, want ≈0.72", m)
	}
	if m := stats.Millis(get("dvrecv", true, time.Second).Mean()); m < 10.5 || m > 14 {
		t.Errorf("dvrecv enabled@1s = %.2f, want ≈12.75", m)
	}
	if m := stats.Millis(get("dvrecv", false, time.Second).Mean()); m < 1 || m > 2.4 {
		t.Errorf("dvrecv disabled@1s = %.2f, want ≈1.76", m)
	}
	out := RenderTable3(cells)
	if !strings.Contains(out, "dvsend") || !strings.Contains(out, "Disabled") {
		t.Error("Table 3 render malformed")
	}
}

func TestTable4MeasuresTip(t *testing.T) {
	cells := Table4Run(quick())
	if len(cells) != 5 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.TipMeasured <= 0 {
			t.Errorf("%s: no Tip measured", c.Phone)
			continue
		}
		// Within the model's ±15ms jitter plus sniffer noise.
		prof, ok := android.ProfileByName(c.Phone)
		if !ok {
			t.Fatalf("%s: no profile", c.Phone)
		}
		diff := c.TipMeasured - prof.PSMTimeout
		if diff < 0 {
			diff = -diff
		}
		if diff > 25*time.Millisecond {
			t.Errorf("%s: Tip measured %v vs nominal %v", c.Phone, c.TipMeasured, prof.PSMTimeout)
		}
	}
	out := RenderTable4(cells)
	if !strings.Contains(out, "L (actual)") {
		t.Error("Table 4 render malformed")
	}
}

func TestTable5NoInflationUnderAcuteMon(t *testing.T) {
	cells := Table5Run(Options{Seed: 7, Probes: 25, Quick: true})
	if len(cells) != 20 {
		t.Fatalf("cells = %d, want 5 phones × 4 RTTs", len(cells))
	}
	for _, c := range cells {
		mean := stats.Millis(c.Dn.Mean())
		want := stats.Millis(c.Emulated)
		// Paper: "most of the deviations are kept within 3ms".
		if mean < want-1 || mean > want+4 {
			t.Errorf("%s @%v: dn mean %.2fms vs emulated %.0fms", c.Phone, c.Emulated, mean, want)
		}
	}
	out := RenderTable5(cells)
	if !strings.Contains(out, "135ms") {
		t.Error("Table 5 render malformed")
	}
}

func TestFig3Shape(t *testing.T) {
	boxes := Fig3Run(quick())
	if len(boxes) != 16 {
		t.Fatalf("boxes = %d, want 16", len(boxes))
	}
	find := func(label, kind string, rtt time.Duration) stats.Boxplot {
		for _, b := range boxes {
			if b.Label == label && b.Kind == kind && b.RTT == rtt {
				return b.Box
			}
		}
		t.Fatalf("box %s/%s/%v missing", label, kind, rtt)
		return stats.Boxplot{}
	}
	// Fig 3(c): at 60ms, N5(1s) Δdk−n median ≈18ms far above N4(1s) ≈6ms.
	n5 := find("N5(1s)", "dk-n", 60*time.Millisecond)
	n4 := find("N4(1s)", "dk-n", 60*time.Millisecond)
	if n5.Median <= n4.Median {
		t.Errorf("Δdk−n medians: N5(1s)=%v should exceed N4(1s)=%v", n5.Median, n4.Median)
	}
	if m := stats.Millis(n5.Median); m < 14 || m > 25 {
		t.Errorf("N5(1s) Δdk−n median = %.2f, want ≈18-21", m)
	}
	if m := stats.Millis(n4.Median); m < 3 || m > 9 {
		t.Errorf("N4(1s) Δdk−n median = %.2f, want ≈6", m)
	}
	// Fig 3(b)/(d): Δdu−k is near zero.
	duk := find("N5(10ms)", "du-k", 30*time.Millisecond)
	if m := stats.Millis(duk.Median); m < 0 || m > 1 {
		t.Errorf("N5(10ms) Δdu−k median = %.2f, want ≈0-0.5", m)
	}
	if out := RenderFig3(boxes); !strings.Contains(out, "Fig 3 panel") {
		t.Error("Fig 3 render malformed")
	}
}

func TestFig4Fig5Fig6Render(t *testing.T) {
	f4 := Fig4Run(quick())
	for _, fn := range []string{"dhd_start_xmit", "dhd_sched_dpc", "dhdsdio_bussleep", "dhdsdio_txpkt"} {
		if !strings.Contains(f4, fn) {
			t.Errorf("Fig 4 missing %s", fn)
		}
	}
	f5 := Fig5Run(quick())
	for _, fn := range []string{"dhdsdio_isr", "dhdsdio_readframes", "dhd_rxf_enqueue", "netif_rx_ni"} {
		if !strings.Contains(f5, fn) {
			t.Errorf("Fig 5 missing %s", fn)
		}
	}
	f6 := Fig6Run(quick())
	for _, ev := range []string{"warmup_send", "background_send", "probe_send", "probe_done"} {
		if !strings.Contains(f6, ev) {
			t.Errorf("Fig 6 missing %s", ev)
		}
	}
}

func TestFig7OverheadsWithin3ms(t *testing.T) {
	boxes := Fig7Run(Options{Seed: 7, Probes: 40, Quick: false})
	if len(boxes) != 24 {
		t.Fatalf("boxes = %d, want 3 phones × 4 RTTs × 2 kinds", len(boxes))
	}
	for _, b := range boxes {
		med := stats.Millis(b.Box.Median)
		switch b.Kind {
		case "du-k":
			if med > 1 {
				t.Errorf("%s @%v Δdu−k median = %.2f, want < 1ms", b.Phone, b.RTT, med)
			}
		case "dk-n":
			if med > 2.6 {
				t.Errorf("%s @%v Δdk−n median = %.2f, want ≲2ms", b.Phone, b.RTT, med)
			}
		}
	}
	if out := RenderFig7(boxes); !strings.Contains(out, "Samsung Grand") {
		t.Error("Fig 7 render malformed")
	}
}

func TestFig8AcuteMonWins(t *testing.T) {
	series := Fig8Run(quick())
	if len(series) != 8 {
		t.Fatalf("series = %d", len(series))
	}
	med := func(tool string, cross bool) float64 {
		for _, s := range series {
			if s.Tool == tool && s.Cross == cross {
				return stats.Millis(s.RTTs.Median())
			}
		}
		t.Fatalf("series %s/%v missing", tool, cross)
		return 0
	}
	for _, cross := range []bool{false, true} {
		a := med("AcuteMon", cross)
		for _, other := range []string{"ping", "httping", "Java ping"} {
			if o := med(other, cross); o <= a {
				t.Errorf("cross=%v: AcuteMon (%.2f) should beat %s (%.2f)", cross, a, other, o)
			}
		}
	}
	// Cross traffic shifts every curve right.
	if med("AcuteMon", true) <= med("AcuteMon", false) {
		t.Error("cross traffic did not shift AcuteMon's CDF")
	}
	if med("ping", true) <= med("ping", false) {
		t.Error("cross traffic did not shift ping's CDF")
	}
	if out := RenderFig8(series); !strings.Contains(out, "Fig 8(b)") {
		t.Error("Fig 8 render malformed")
	}
}

func TestFig9BackgroundTrafficHarmless(t *testing.T) {
	series := Fig9Run(quick())
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	med := map[string]float64{}
	for _, s := range series {
		med[s.Label] = stats.Millis(s.RTTs.Median())
	}
	diff := med["With BG traffic"] - med["Without BG traffic"]
	if diff < 0 {
		diff = -diff
	}
	// §4.4: "the difference ... is very small".
	if diff > 3 {
		t.Errorf("BG traffic changed the median by %.2fms, want < 3ms", diff)
	}
	// The RTT increase comes from the cross traffic, not the BT.
	if med["With BG traffic"] <= med["No cross traffic"] {
		t.Error("cross traffic reference should be the lowest curve")
	}
	if out := RenderFig9(series); !strings.Contains(out, "Fig 9") {
		t.Error("Fig 9 render malformed")
	}
}

func TestAblationPing2Crossover(t *testing.T) {
	rows := AblationPing2(quick())
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	errAt := func(rtt time.Duration) (p2, am float64) {
		for _, r := range rows {
			if r.Emulated == rtt {
				return stats.Millis(r.Ping2Err), stats.Millis(r.AcuteErr)
			}
		}
		t.Fatalf("row %v missing", rtt)
		return 0, 0
	}
	shortP2, shortAM := errAt(20 * time.Millisecond)
	longP2, longAM := errAt(100 * time.Millisecond)
	if shortP2 > 8 {
		t.Errorf("ping2 short-path error = %.2fms, want small", shortP2)
	}
	if longP2 < shortP2+4 {
		t.Errorf("ping2 long-path error (%.2f) should blow up vs short (%.2f)", longP2, shortP2)
	}
	if longAM > 6 || shortAM > 6 {
		t.Errorf("AcuteMon errors should stay small: %.2f / %.2f", shortAM, longAM)
	}
	if out := RenderAblationPing2(rows); !strings.Contains(out, "ping2") {
		t.Error("A1 render malformed")
	}
}

func TestAblationDBCliff(t *testing.T) {
	rows := AblationDB(quick())
	over := map[time.Duration]float64{}
	for _, r := range rows {
		over[r.DB] = stats.Millis(r.MedianOverhead)
	}
	if over[20*time.Millisecond] > 3 {
		t.Errorf("db=20ms overhead = %.2f, want < 3ms", over[20*time.Millisecond])
	}
	if over[120*time.Millisecond] < over[20*time.Millisecond]+3 {
		t.Errorf("no cliff: db=120ms %.2f vs db=20ms %.2f", over[120*time.Millisecond], over[20*time.Millisecond])
	}
	if out := RenderAblationDB(rows); !strings.Contains(out, "db") {
		t.Error("A2 render malformed")
	}
}

func TestAblationDpre(t *testing.T) {
	rows := AblationDpre(quick())
	pen := map[time.Duration]float64{}
	for _, r := range rows {
		pen[r.Dpre] = stats.Millis(r.FirstProbeOverhead)
	}
	if pen[time.Millisecond] < pen[20*time.Millisecond]+2 {
		t.Errorf("dpre=1ms first-probe penalty (%.2f) should exceed dpre=20ms (%.2f)",
			pen[time.Millisecond], pen[20*time.Millisecond])
	}
	if pen[20*time.Millisecond] > 2 {
		t.Errorf("dpre=20ms penalty = %.2f, want ≈0", pen[20*time.Millisecond])
	}
	if out := RenderAblationDpre(rows); !strings.Contains(out, "dpre") {
		t.Error("A3 render malformed")
	}
}

func TestAblationIdletimeMovesCliff(t *testing.T) {
	rows := AblationIdletime(quick())
	du := map[int]float64{}
	for _, r := range rows {
		du[r.Idletime] = stats.Millis(r.MeanDu)
	}
	// 200ms probe interval: idletime 1 (10ms) sleeps between probes,
	// idletime 30 (300ms) never does.
	if du[1] < du[30]+5 {
		t.Errorf("idletime=1 du (%.2f) should far exceed idletime=30 (%.2f)", du[1], du[30])
	}
	if out := RenderAblationIdletime(rows); !strings.Contains(out, "idle period") {
		t.Error("A4 render malformed")
	}
}

func TestExtensionCellular(t *testing.T) {
	rows := ExtensionCellular(quick())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	med := map[string]float64{}
	for _, r := range rows {
		if len(r.RTTs) == 0 {
			t.Fatalf("%s: no samples", r.Label)
		}
		med[r.Label] = stats.Millis(r.RTTs.Median())
	}
	// 500ms interval: stays in DCH → clean path RTT.
	if m := med["ping @500ms"]; m < 80 || m > 160 {
		t.Errorf("fast cellular ping median = %.0fms", m)
	}
	// 20s interval: every probe pays the IDLE→DCH promotion (~2s).
	if m := med["ping @20s"]; m < 1800 {
		t.Errorf("slow cellular ping median = %.0fms, want promotion-scale", m)
	}
	// 7s interval: FACH→DCH promotions (~0.5-0.9s).
	if m := med["ping @7s"]; m < 450 || m > 1400 {
		t.Errorf("FACH-regime ping median = %.0fms", m)
	}
	// AcuteMon pins DCH → clean again.
	if m := med["AcuteMon (db=1s)"]; m < 80 || m > 160 {
		t.Errorf("cellular AcuteMon median = %.0fms", m)
	}
	if out := RenderCellular(rows); !strings.Contains(out, "AcuteMon") {
		t.Error("cellular render malformed")
	}
}

func TestExtensionEnergy(t *testing.T) {
	rows := ExtensionEnergy(quick())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byScheme := map[string]EnergyRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	idle := byScheme["idle"]
	am := byScheme["acutemon"]
	fast := byScheme["ping@10ms"]
	slow := byScheme["ping@1s"]

	// Idle is the cheapest; both awake-keeping schemes cost more.
	if am.TotalMJ() <= idle.TotalMJ() || fast.TotalMJ() <= idle.TotalMJ() {
		t.Errorf("awake-keeping schemes should cost more than idle: idle=%.0f am=%.0f fast=%.0f",
			idle.TotalMJ(), am.TotalMJ(), fast.TotalMJ())
	}
	// AcuteMon and fast ping pin the radio for a similar span, but
	// AcuteMon pushes ~10× fewer packets beyond the gateway.
	if am.BeyondGateway*3 >= fast.BeyondGateway {
		t.Errorf("beyond-gateway packets: acutemon=%d vs ping@10ms=%d, want ≥3× reduction",
			am.BeyondGateway, fast.BeyondGateway)
	}
	// The 1s ping sleeps most of the window (cheap) but measures garbage.
	if slow.TotalMJ() >= am.TotalMJ() {
		t.Errorf("ping@1s (%.0fmJ) should undercut acutemon (%.0fmJ) energetically", slow.TotalMJ(), am.TotalMJ())
	}
	if slow.MedianRTT <= am.MedianRTT+5*time.Millisecond {
		t.Errorf("ping@1s median %v should be inflated vs acutemon %v", slow.MedianRTT, am.MedianRTT)
	}
	// Both accurate schemes measure ≈85ms.
	for _, s := range []string{"acutemon", "ping@10ms"} {
		if m := byScheme[s].MedianRTT; m < 85*time.Millisecond || m > 91*time.Millisecond {
			t.Errorf("%s median = %v, want ≈86-89ms", s, m)
		}
	}
	if out := RenderEnergy(rows); !strings.Contains(out, "beyond gateway") {
		t.Error("energy render malformed")
	}
}
