package experiments

import (
	"fmt"
	"time"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tools"
)

// Table1 renders the phone inventory (paper Table 1).
func Table1() string {
	t := report.NewTable("Table 1: The smartphones used in the testbed evaluation.",
		"Model", "Ver.", "CPU (core)", "RAM", "WNIC", "Driver")
	for _, p := range android.Profiles() {
		t.AddRow(p.Model, p.AndroidVer,
			fmt.Sprintf("%.2gGHz (%d)", p.CPUGHz, p.Cores),
			fmt.Sprintf("%dMB", p.RAMMB), p.Chipset, p.DriverConfig().Name)
	}
	return t.String()
}

// Table2Cell is one (phone, RTT, interval) measurement of Table 2 and
// the raw material for Figure 3.
type Table2Cell struct {
	Phone      string
	RTT        time.Duration
	Interval   time.Duration
	Du, Dk, Dn stats.Sample
	DeltaUK    stats.Sample
	DeltaKN    stats.Sample
}

// Table2Run executes the §3.1 multi-layer ping experiment: Nexus 4 and
// Nexus 5, emulated RTTs 30/60 ms, ping intervals 10 ms and 1 s.
func Table2Run(opts Options) []Table2Cell {
	opts.fill()
	type spec struct {
		phone         string
		rtt, interval time.Duration
	}
	var specs []spec
	for _, phone := range []string{"Google Nexus 4", "Google Nexus 5"} {
		for _, rtt := range []time.Duration{30 * time.Millisecond, 60 * time.Millisecond} {
			for _, interval := range []time.Duration{10 * time.Millisecond, time.Second} {
				specs = append(specs, spec{phone, rtt, interval})
			}
		}
	}
	return parMap(opts, len(specs), func(i int) Table2Cell {
		sp := specs[i]
		tb := newTB(opts.subSeed(int64(i+1)), sp.phone, sp.rtt, nil)
		res := tools.Ping(tb, tools.PingOptions{Count: opts.probes(), Interval: sp.interval})
		// One capture walk yields every per-layer quantity at once.
		l := tools.ExtractLayers(tb, tb.MergedCapture(), res.Records)
		return Table2Cell{
			Phone: sp.phone, RTT: sp.rtt, Interval: sp.interval,
			Du: l.Du, Dk: l.Dk, Dn: l.Dn, DeltaUK: l.DuK, DeltaKN: l.DkN,
		}
	})
}

// RenderTable2 prints Table 2's layout (mean ±95% CI, in ms).
func RenderTable2(cells []Table2Cell) string {
	t := report.NewTable("Table 2: RTTs measured at different layers (mean ±95% CI, ms).",
		"Phone", "RTT", "Intv.", "du", "dk", "dn")
	for _, c := range cells {
		t.AddRow(c.Phone,
			fmt.Sprintf("%dms", c.RTT/time.Millisecond),
			fmtInterval(c.Interval),
			report.MeanCI(c.Du), report.MeanCI(c.Dk), report.MeanCI(c.Dn))
	}
	return t.String()
}

func fmtInterval(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%gs", d.Seconds())
	}
	return fmt.Sprintf("%dms", d/time.Millisecond)
}

// Table3Cell is one dvsend/dvrecv row (paper Table 3).
type Table3Cell struct {
	Kind     string // "dvsend" or "dvrecv"
	BusSleep bool
	Interval time.Duration
	Sample   stats.Sample
}

// Table3Run reproduces the instrumented-driver measurement on the
// Nexus 5: 100 ICMP probes at 10 ms and 1 s intervals with the SDIO bus
// sleep enabled and disabled. The emulated path is 60 ms: Table 3's
// dvrecv ≈ 12.75 ms at the 1 s interval requires the reply to land
// after the ~50-60 ms bus demotion, which a 30 ms path cannot produce.
func Table3Run(opts Options) []Table3Cell {
	opts.fill()
	type spec struct {
		sleep    bool
		interval time.Duration
	}
	specs := []spec{
		{true, 10 * time.Millisecond}, {true, time.Second},
		{false, 10 * time.Millisecond}, {false, time.Second},
	}
	pairs := parMap(opts, len(specs), func(i int) [2]Table3Cell {
		sp := specs[i]
		tb := newTB(opts.subSeed(int64(101+i)), "Google Nexus 5", 60*time.Millisecond, func(c *testbed.Config) {
			c.DisableBusSleep = !sp.sleep
		})
		tools.Ping(tb, tools.PingOptions{Count: opts.probes(), Interval: sp.interval})
		return [2]Table3Cell{
			{Kind: "dvsend", BusSleep: sp.sleep, Interval: sp.interval,
				Sample: tb.Phone.Drv.Instr.SendSample()},
			{Kind: "dvrecv", BusSleep: sp.sleep, Interval: sp.interval,
				Sample: tb.Phone.Drv.Instr.RecvSample()},
		}
	})
	cells := make([]Table3Cell, 0, 2*len(pairs))
	for _, p := range pairs {
		cells = append(cells, p[0], p[1])
	}
	return cells
}

// RenderTable3 prints Table 3's min/mean/max layout.
func RenderTable3(cells []Table3Cell) string {
	t := report.NewTable("Table 3: dvsend and dvrecv on the Nexus 5 (min/mean/max, ms).",
		"Type", "Bus sleep", "Interval", "min / mean / max")
	for _, c := range cells {
		state := "Enabled"
		if !c.BusSleep {
			state = "Disabled"
		}
		t.AddRow(c.Kind, state, fmtInterval(c.Interval), report.MinMeanMax(c.Sample))
	}
	return t.String()
}

// Table4Cell is one phone's measured PSM parameters.
type Table4Cell struct {
	Phone        string
	TipMeasured  time.Duration
	AssocListen  int
	ActualListen int
}

// Table4Run reproduces the PSM-timeout measurement: the calibration
// procedure observes each phone's PM=1 null frame on the sniffers.
func Table4Run(opts Options) []Table4Cell {
	opts.fill()
	rounds := 8
	if opts.Quick {
		rounds = 4
	}
	return parMap(opts, len(AllPhones), func(i int) Table4Cell {
		phone := AllPhones[i]
		tb := newTB(opts.subSeed(200+int64(i)), phone, 30*time.Millisecond, nil)
		cal := core.Calibrate(tb, core.CalibrateOptions{TipRounds: rounds, TisMax: 1, TisStep: 1, PairsPerGap: 1})
		prof, _ := android.ProfileByName(phone)
		return Table4Cell{
			Phone:        phone,
			TipMeasured:  cal.Tip,
			AssocListen:  prof.AssocListenInterval,
			ActualListen: prof.ActualListenInterval,
		}
	})
}

// RenderTable4 prints Table 4's layout.
func RenderTable4(cells []Table4Cell) string {
	t := report.NewTable("Table 4: PSM timeout values (Tip) and initial listen intervals (L).",
		"Phone", "Tip (measured)", "L (associated)", "L (actual)")
	for _, c := range cells {
		t.AddRow(c.Phone,
			fmt.Sprintf("~%dms", c.TipMeasured/time.Millisecond),
			fmt.Sprintf("%d", c.AssocListen),
			fmt.Sprintf("%d", c.ActualListen))
	}
	return t.String()
}

// Table5Cell is one phone × emulated-RTT AcuteMon run.
type Table5Cell struct {
	Phone    string
	Emulated time.Duration
	Dn       stats.Sample
}

// Table5RTTs are the §4.2 emulated paths.
var Table5RTTs = []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 85 * time.Millisecond, 135 * time.Millisecond}

// Table5Run measures the actual nRTT (dn, from the external sniffers)
// under AcuteMon for all five phones and four emulated RTTs.
func Table5Run(opts Options) []Table5Cell {
	opts.fill()
	type spec struct {
		phone string
		rtt   time.Duration
	}
	var specs []spec
	for _, phone := range AllPhones {
		for _, rtt := range Table5RTTs {
			specs = append(specs, spec{phone, rtt})
		}
	}
	return parMap(opts, len(specs), func(i int) Table5Cell {
		sp := specs[i]
		tb := newTB(opts.subSeed(int64(301+i)), sp.phone, sp.rtt, nil)
		// Let the phone settle (and doze) before measurement, as a
		// real idle phone would.
		tb.Sim.RunUntil(500 * time.Millisecond)
		mon := core.New(tb, core.Config{K: opts.probes()})
		res := mon.Run()
		_, _, dn := tools.LayerSamples(tb, res.Result)
		return Table5Cell{Phone: sp.phone, Emulated: sp.rtt, Dn: dn}
	})
}

// RenderTable5 prints Table 5's layout.
func RenderTable5(cells []Table5Cell) string {
	t := report.NewTable("Table 5: actual nRTTs (dn) by external sniffers under AcuteMon (mean ±95% CI, ms).",
		"Phone", "20ms", "50ms", "85ms", "135ms")
	byPhone := map[string][]Table5Cell{}
	for _, c := range cells {
		byPhone[c.Phone] = append(byPhone[c.Phone], c)
	}
	for _, phone := range AllPhones {
		row := []string{phone}
		for _, rtt := range Table5RTTs {
			found := "-"
			for _, c := range byPhone[phone] {
				if c.Emulated == rtt {
					found = report.MeanCI(c.Dn)
				}
			}
			row = append(row, found)
		}
		t.AddRow(row...)
	}
	return t.String()
}
