package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/report"
	"repro/internal/stats"
)

// CellularRow is one probe-interval sweep point of the cellular
// extension experiment (§4's "easily extended to cellular" claim).
type CellularRow struct {
	Label string
	RTTs  stats.Sample
}

// ExtensionCellular sweeps the ping interval across the UMTS RRC timer
// boundaries (T1 = 5 s DCH→FACH, T2 = 12 s FACH→IDLE) and contrasts the
// resulting inflation with an AcuteMon-style run whose background
// traffic pins the modem in DCH.
func ExtensionCellular(opts Options) []CellularRow {
	opts.fill()
	probes := opts.probes()
	if probes > 30 {
		probes = 30 // long intervals make big campaigns pointless
	}
	intervals := []time.Duration{500 * time.Millisecond, 2 * time.Second, 7 * time.Second, 20 * time.Second}
	return parMap(opts, len(intervals)+1, func(i int) CellularRow {
		if i == len(intervals) {
			// AcuteMon over cellular: background packets each second
			// (db ≪ T1).
			tb := cellular.NewTestbed(cellular.TestbedConfig{
				Seed: opts.subSeed(1299), Radio: cellular.UMTS(), CoreRTT: 40 * time.Millisecond,
			})
			tb.Sim.RunFor(30 * time.Second) // modem idles first
			am := tb.RunAcuteMon(probes, 2500*time.Millisecond, time.Second, 0)
			return CellularRow{Label: "AcuteMon (db=1s)", RTTs: am.RTTs}
		}
		interval := intervals[i]
		tb := cellular.NewTestbed(cellular.TestbedConfig{
			Seed: opts.subSeed(1200 + int64(i)), Radio: cellular.UMTS(), CoreRTT: 40 * time.Millisecond,
		})
		n := probes
		if interval >= 7*time.Second {
			n = 8 // keep the virtual clock reasonable
		}
		res := tb.Ping(n, interval)
		return CellularRow{Label: fmt.Sprintf("ping @%v", interval), RTTs: res.RTTs}
	})
}

// RenderCellular prints the sweep.
func RenderCellular(rows []CellularRow) string {
	t := report.NewTable("Extension: RRC-induced inflation on UMTS (CoreRTT 40ms, DCH path ≈ 95-110ms).",
		"workload", "median", "p90", "max", "n")
	for _, r := range rows {
		t.AddRow(r.Label,
			fmt.Sprintf("%.0fms", stats.Millis(r.RTTs.Median())),
			fmt.Sprintf("%.0fms", stats.Millis(r.RTTs.Percentile(90))),
			fmt.Sprintf("%.0fms", stats.Millis(r.RTTs.Max())),
			fmt.Sprintf("%d", len(r.RTTs)))
	}
	return t.String()
}
