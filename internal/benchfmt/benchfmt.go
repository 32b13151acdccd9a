// Package benchfmt is the shared schema and parser for the repo's
// benchmark records: `go test -bench` text output parsed into the JSON
// document CI archives as BENCH_N.json. cmd/bench2json writes the
// format; cmd/benchdiff reads two of them and gates on regressions.
// The JSON field names are frozen — committed BENCH artifacts from
// earlier PRs must keep parsing.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// BaseName returns the benchmark name with the trailing GOMAXPROCS
// suffix ("-8") stripped, so records from hosts with different core
// counts compare by the same key. Sub-benchmark slashes are kept.
func (b Benchmark) BaseName() string {
	name := b.Name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// Key identifies a benchmark across runs: package path plus the
// GOMAXPROCS-stripped name.
func (b Benchmark) Key() string { return b.Pkg + "." + b.BaseName() }

// Output is the whole document.
type Output struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Failures   []string    `json:"failures,omitempty"`
}

// ByKey indexes the benchmarks by Key. Duplicate keys (re-run
// benchmarks) keep the last occurrence.
func (o *Output) ByKey() map[string]Benchmark {
	m := make(map[string]Benchmark, len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		m[b.Key()] = b
	}
	return m
}

// Parse reads `go test -bench` text output and collects benchmark
// lines, platform headers, and FAIL lines. Unrecognized lines are
// ignored, so mixed test/bench logs parse cleanly. A benchmark run
// twice (a 1-iteration sweep, then a steady pass) keeps one row per Key:
// the last occurrence, the one ByKey gates on, in the first one's place.
func Parse(r io.Reader) (Output, error) {
	out := Output{Benchmarks: []Benchmark{}}
	row := map[string]int{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "FAIL"):
			out.Failures = append(out.Failures, strings.TrimSpace(line))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := ParseLine(pkg, line)
			if !ok {
				continue
			}
			if i, seen := row[b.Key()]; seen {
				out.Benchmarks[i] = b
			} else {
				row[b.Key()] = len(out.Benchmarks)
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	return out, sc.Err()
}

// ParseLine parses "BenchmarkName-8  3550  670815 ns/op  149072
// summaries/sec" into name, iteration count, and value/unit metric
// pairs.
func ParseLine(pkg, line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Pkg: pkg, Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// ReadFile loads a BENCH_N.json document written by cmd/bench2json.
func ReadFile(path string) (Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Output{}, err
	}
	var out Output
	if err := json.Unmarshal(data, &out); err != nil {
		return Output{}, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return out, nil
}
