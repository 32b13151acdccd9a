// Command bench2json converts `go test -bench` text output on stdin
// into a JSON document on stdout, so CI can archive benchmark runs
// (BENCH_N.json artifacts) and trend-track ns/op and summaries/sec
// across PRs without scraping logs. The schema and parser live in
// internal/benchfmt, shared with cmd/benchdiff which gates CI on the
// same records. A benchmark that ran more than once (the 1-iteration
// sweep, then the steady pass) keeps one row: its last.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | bench2json > BENCH.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	out, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(out.Failures) > 0 {
		os.Exit(1)
	}
}
