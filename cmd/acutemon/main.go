// Command acutemon runs one measurement session through the unified
// Session API and prints the resulting RTT distribution and (on the
// sim backend) per-layer overheads.
//
// Usage:
//
//	acutemon [-backend sim|cellular] [-method acutemon|ping|httping|javaping|ping2]
//	         [-phone "Google Nexus 5"] [-rtt 30ms] [-count 100] [-interval 1s]
//	         [-probe tcp|http|udp|icmp] [-radio umts|lte] [-cross] [-seed 1]
//	         [-calibrate] [-profiles knowledge.json] [-pcap out.pcap]
//	acutemon -list
//
// The -backend/-method pair is the same vocabulary acutemon-live and
// acutemon-fleet speak.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	acutemon "repro"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	backend := flag.String("backend", "sim", "session backend (see -list)")
	method := flag.String("method", "acutemon", "probing method (see -list)")
	list := flag.Bool("list", false, "list registered backends and methods, then exit")
	phone := flag.String("phone", "Google Nexus 5", "phone model (see Table 1)")
	rtt := flag.Duration("rtt", 30*time.Millisecond, "emulated path RTT (operator-core RTT on cellular)")
	count := flag.Int("count", 100, "probe count")
	interval := flag.Duration("interval", time.Second, "probe interval (comparison tools)")
	probe := flag.String("probe", "", "probe mechanism: tcp|http|udp|icmp (method default when empty)")
	radio := flag.String("radio", "umts", "cellular RRC model: umts|lte")
	cross := flag.Bool("cross", false, "enable iPerf cross traffic (§4.3, sim only)")
	seed := flag.Int64("seed", 1, "random seed")
	calibrate := flag.Bool("calibrate", false, "calibrate Tis/Tip first and use the recommended dpre/db (sim acutemon)")
	profilesPath := flag.String("profiles", "", "device-knowledge snapshot: stored dpre/db is applied without retraining (sim acutemon), the session's attribution is folded back in, and the file is saved after the run")
	pcapPath := flag.String("pcap", "", "write sniffer A's capture to this .pcap file (sim only)")
	flag.Parse()

	if *list {
		fmt.Println("backends:")
		for _, b := range acutemon.Backends() {
			fmt.Printf("  %-10s %s\n", b.Name(), b.Description())
		}
		fmt.Println("methods:")
		for _, m := range acutemon.Methods() {
			fmt.Printf("  %-10s %s\n", m.Name(), m.Description())
		}
		return
	}
	if *pcapPath != "" && *backend != "sim" {
		fmt.Fprintln(os.Stderr, "-pcap needs the sim backend (no sniffers elsewhere)")
		os.Exit(2)
	}

	spec := acutemon.SessionSpec{
		Backend:      *backend,
		Method:       *method,
		K:            *count,
		Interval:     *interval,
		Probe:        *probe,
		Phone:        *phone,
		Seed:         *seed,
		EmulatedRTT:  *rtt,
		CrossTraffic: *cross,
		Radio:        *radio,
	}

	// The shared device-knowledge path: prior sessions' calibrations
	// configure this one, and this one's attribution teaches the store.
	var knowledge *acutemon.KnowledgeStore
	if *profilesPath != "" {
		st, found, err := acutemon.LoadKnowledge(*profilesPath, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profiles:", err)
			os.Exit(1)
		}
		knowledge = st
		if found {
			fmt.Printf("loaded device knowledge from %s: %d profiles (%d calibrated)\n",
				*profilesPath, st.Len(), st.CalibratedLen())
		}
		spec.Knowledge = knowledge
		if *backend == "sim" && *method == "acutemon" && !*calibrate {
			// Profiles are stored under the canonical model name, so
			// resolve phone aliases ("nexus5") before the lookup.
			model := *phone
			if prof, ok := acutemon.ProfileByName(*phone); ok {
				model = prof.Model
			}
			if e, ok := knowledge.Calibration(model); ok {
				fmt.Printf("knowledge base: using stored dpre=%v db=%v (Tip≈%v, %d samples)\n",
					e.Warmup, e.Interval, e.Tip.Round(time.Millisecond), e.Samples)
				spec.WarmupDelay = e.Warmup
				spec.BackgroundInterval = e.Interval
			}
		}
	}

	// On the sim backend the rig is built here so calibration, the
	// layer report, and -pcap all see the same capture; the spec then
	// carries it into Run.
	var tb *acutemon.Testbed
	if *backend == "sim" {
		prof, ok := acutemon.ProfileByName(*phone)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown phone %q; options:\n", *phone)
			for _, p := range acutemon.Profiles() {
				fmt.Fprintf(os.Stderr, "  %s\n", p.Model)
			}
			os.Exit(2)
		}
		cfg := acutemon.DefaultTestbedConfig()
		cfg.Seed = *seed
		cfg.Phone = prof
		cfg.EmulatedRTT = *rtt
		tb = acutemon.NewTestbed(cfg)
		if *cross {
			tb.StartCrossTraffic()
		}
		tb.Sim.RunUntil(300 * time.Millisecond) // let the idle phone settle
		spec.Testbed = tb
		fmt.Printf("testbed: %s, emulated RTT %v, cross traffic %v\n", prof.Model, *rtt, *cross)

		if *calibrate && *method == "acutemon" {
			cal := acutemon.Calibrate(tb, acutemon.CalibrateOptions{})
			fmt.Printf("calibration: Tip≈%v Tis≈%v → dpre=db=%v\n",
				cal.Tip.Round(time.Millisecond), cal.Tis, cal.RecommendedInterval)
			spec.WarmupDelay = cal.RecommendedWarmup
			spec.BackgroundInterval = cal.RecommendedInterval
			if knowledge != nil {
				if err := knowledge.RecordCalibration(acutemon.RegistryEntry{
					Model: prof.Model, Chipset: prof.Chipset,
					Tip: cal.Tip, Tis: cal.Tis,
					Warmup: cal.RecommendedWarmup, Interval: cal.RecommendedInterval,
					Samples: len(cal.TipSamples),
				}); err != nil {
					fmt.Fprintln(os.Stderr, "profiles:", err)
				}
			}
		}
	} else {
		fmt.Printf("backend: %s (radio %s), core RTT %v\n", *backend, *radio, *rtt)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := acutemon.Run(ctx, spec)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "interrupted: partial session")
		if res == nil {
			os.Exit(1)
		}
	}

	sample := res.Sample()
	if len(sample) == 0 {
		fmt.Println("no probes completed")
		os.Exit(1)
	}
	if res.BackgroundSent > 0 {
		fmt.Printf("background packets sent: %d (all dropped at the gateway)\n", res.BackgroundSent)
	}
	fmt.Printf("\n%s RTTs: %s\n", *method, sample.Summarize())
	fmt.Println(report.RenderCDF(*method, stats.NewECDF(sample), 48))

	if l := res.Analyze().Layers; l != nil && len(l.Dn) > 0 {
		fmt.Printf("per-layer means: du=%.2fms dk=%.2fms dn=%.2fms\n",
			stats.Millis(l.Du.Mean()), stats.Millis(l.Dk.Mean()), stats.Millis(l.Dn.Mean()))
		fmt.Printf("overheads: Δdu−k median=%.2fms, Δdk−n median=%.2fms (paper target: sum < 3ms under AcuteMon)\n",
			stats.Millis(l.DuK.Median()), stats.Millis(l.DkN.Median()))
	}

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tb.Sniffers[0].WritePcap(f); err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d captured frames to %s (802.11 link type; open with tcpdump/Wireshark)\n",
			len(tb.Sniffers[0].Records()), *pcapPath)
	}

	if knowledge != nil {
		if err := knowledge.SaveFile(*profilesPath); err != nil {
			fmt.Fprintln(os.Stderr, "profiles:", err)
			os.Exit(1)
		}
		fmt.Printf("saved %d device profiles (%d calibrated) to %s\n",
			knowledge.Len(), knowledge.CalibratedLen(), *profilesPath)
	}
}
