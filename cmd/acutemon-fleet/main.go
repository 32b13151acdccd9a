// Command acutemon-fleet runs a concurrent measurement campaign:
// hundreds to thousands of simulated phone sessions scheduled over a
// bounded worker pool, aggregated into a per-group campaign report.
//
// Usage:
//
//	acutemon-fleet [-scenario device-mix] [-sessions 1000] [-workers 0]
//	               [-probes 100] [-rtt 30ms] [-seed 1] [-json]
//	               [-profiles knowledge.json] [-calibrate] [-progress]
//	acutemon-fleet -list
//
// SIGINT/SIGTERM stop dispatching at the next session boundary, drain
// in-flight sessions, and print a partial report instead of dying
// mid-run. -json emits the machine-readable CampaignReport on stdout —
// replayable through `acutemon-ingestd -replay` and diffable for CI
// trend tracking.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	acutemon "repro"
)

func main() {
	scenario := flag.String("scenario", "device-mix", "campaign preset (see -list)")
	list := flag.Bool("list", false, "list scenario presets, backends, and methods, then exit")
	backend := flag.String("backend", "", "override every session's backend: sim|cellular (scenario default when empty)")
	method := flag.String("method", "", "override every session's method: acutemon|ping|httping|javaping|ping2 (scenario default when empty)")
	radio := flag.String("radio", "", "cellular RRC model with -backend cellular: umts|lte")
	sessions := flag.Int("sessions", 1000, "number of measurement sessions")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	probes := flag.Int("probes", 100, "probes per session (K)")
	rtt := flag.Duration("rtt", 30*time.Millisecond, "base emulated path RTT")
	seed := flag.Int64("seed", 1, "campaign seed (results are reproducible per seed)")
	profilesPath := flag.String("profiles", "", "device-knowledge snapshot: loaded if present, taught by every attributing session (and -calibrate), saved after the run; POST it to a live ingestd's /v1/profiles to merge the delta")
	calibrate := flag.Bool("calibrate", false, "auto-calibrate models missing from the knowledge store before sessions start")
	progress := flag.Bool("progress", false, "print one line per 100 finished sessions")
	jsonOut := flag.Bool("json", false, "emit the machine-readable CampaignReport as JSON on stdout")
	flag.Parse()

	// With -json, stdout carries exactly one JSON document; everything
	// informational goes to stderr.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	if *list {
		fmt.Println("campaign scenarios:")
		for _, sc := range acutemon.CampaignScenarios() {
			fmt.Printf("  %-16s %s\n", sc.Name, sc.Description)
		}
		fmt.Println("backends (-backend):")
		for _, b := range acutemon.Backends() {
			if b.Name() == "live" {
				continue // campaigns are simulation-scale
			}
			fmt.Printf("  %-16s %s\n", b.Name(), b.Description())
		}
		fmt.Println("methods (-method):")
		for _, m := range acutemon.Methods() {
			fmt.Printf("  %-16s %s\n", m.Name(), m.Description())
		}
		return
	}

	sc, ok := acutemon.CampaignScenarioByName(*scenario)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; run with -list\n", *scenario)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal behavior once the first signal lands, so a
	// second Ctrl-C force-quits a slow drain instead of being swallowed.
	context.AfterFunc(ctx, stop)

	c := acutemon.Campaign{
		Name:     *scenario,
		Scenario: *scenario,
		Seed:     *seed,
		Workers:  *workers,
		Context:  ctx,
		Sessions: sc.Build(acutemon.CampaignParams{
			Sessions: *sessions,
			Seed:     *seed,
			Probes:   *probes,
			BaseRTT:  *rtt,
		}),
	}
	if *backend != "" || *method != "" || *radio != "" {
		if *method != "" {
			if _, ok := acutemon.MethodByName(*method); !ok {
				fmt.Fprintf(os.Stderr, "unknown method %q; run with -list\n", *method)
				os.Exit(2)
			}
		}
		if *backend != "" {
			if _, ok := acutemon.BackendByName(*backend); !ok || *backend == "live" {
				fmt.Fprintf(os.Stderr, "campaign backend must be sim or cellular, got %q\n", *backend)
				os.Exit(2)
			}
		}
		if *radio != "" && *radio != "umts" && *radio != "lte" {
			fmt.Fprintf(os.Stderr, "radio must be umts or lte, got %q\n", *radio)
			os.Exit(2)
		}
		for i := range c.Sessions {
			s := &c.Sessions[i]
			if *backend != "" {
				s.Backend = *backend
			}
			if *radio != "" {
				s.Radio = *radio
			}
			if *method != "" {
				s.Method = *method
			}
			// Annotate explicit scenario labels instead of clearing
			// them, so parameterized sweeps (rtt=85ms, tip=120ms, …)
			// keep their per-group resolution under an override; empty
			// labels re-derive with backend/method suffixes anyway.
			if s.Label != "" {
				if *backend == "cellular" {
					radioName := s.Radio
					if radioName == "" {
						radioName = "umts"
					}
					s.Label += "/cellular-" + radioName
				}
				if *method != "" {
					s.Label += "/" + *method
				}
			}
		}
	}

	if *profilesPath != "" {
		st, found, err := acutemon.LoadKnowledge(*profilesPath, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "profiles:", err)
			os.Exit(1)
		}
		if found {
			fmt.Fprintf(info, "loaded device knowledge from %s: %d profiles (%d calibrated)\n",
				*profilesPath, st.Len(), st.CalibratedLen())
		}
		c.Profiles = st
	}
	if *calibrate {
		// One knowledge store carries the calibrations: with -profiles
		// they land in the saved snapshot too.
		if c.Profiles == nil {
			c.Profiles = acutemon.NewKnowledgeStore(0)
		}
		c.AutoCalibrate = true
	}

	if *progress {
		total := len(c.Sessions)
		done := 0
		c.OnSession = func(r acutemon.CampaignSessionResult) {
			done++
			if done%100 == 0 {
				fmt.Fprintf(info, "  %d/%d sessions done\n", done, total)
			}
		}
	}

	rep, err := acutemon.RunCampaign(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	if rep.Interrupted && *jsonOut {
		// The rendered table says this itself; only the JSON path needs
		// the stderr note.
		fmt.Fprintln(info, "interrupted: partial report over finished sessions")
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "encoding report:", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep.Render())
	}

	if c.Profiles != nil && *profilesPath != "" {
		if err := c.Profiles.SaveFile(*profilesPath); err != nil {
			fmt.Fprintln(os.Stderr, "profiles:", err)
			os.Exit(1)
		}
		fmt.Fprintf(info, "saved %d device profiles (%d calibrated) to %s\n",
			c.Profiles.Len(), c.Profiles.CalibratedLen(), *profilesPath)
	}

	if rep.Errors > 0 {
		os.Exit(1)
	}
}
