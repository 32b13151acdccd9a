package ingest

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
)

// goldenStatsStore folds a fixed mix of summaries: per-observation
// sessions inside and past the histogram range, a device-posted sketch,
// and sessions whose probes were all lost (empty raw and punctured
// tracks), across every correction rung. With fine set the sessions
// spread over three devices and two windows; otherwise windowing is off
// and each group holds one device, so every group row is one cell (a
// rollup that merges several cells folds their sketches in store-walk
// order, which is not fixed).
func goldenStatsStore(t *testing.T, fine bool) *Store {
	t.Helper()
	window, devices := time.Duration(-1), 1
	if fine {
		window, devices = time.Minute, 3
	}
	st := NewStore(window, 1)
	dev := func(i int, group string) string {
		if devices == 1 {
			return group
		}
		return fmt.Sprint("Phone ", i%devices)
	}
	ms := int64(time.Millisecond)
	srcs := []CorrectionSource{SourceReported, SourceLearned, SourceFamily, SourceGlobal, SourceNone}
	for i := 0; i < 24; i++ {
		s := Summary{
			Device: dev(i, fmt.Sprint("wifi-", i%2)), Group: fmt.Sprint("wifi-", i%2), Scenario: "walk",
			TimeMS: int64(i%2) * 60_000, Sent: 4, Lost: i % 2, BackgroundSent: 2,
			RTTs:      []int64{30*ms + int64(i)*ms, 31 * ms, 29*ms - int64(i)*ms/3, int64(i%5) * 300 * ms},
			Inflation: 1.25, LayersOK: i%3 == 0, UserOverheadNS: 2 * ms, SDIOOverheadNS: ms, PSMInflationNS: ms / 2,
			PSMActive: i%4 == 0, Calibrated: i%5 == 0,
		}
		if !st.Fold(&s, time.Duration(int64(i%4)*ms), srcs[i%len(srcs)]) {
			t.Fatal("fold refused")
		}
	}
	sk := agg.NewSketch(0)
	for i := 0; i < 300; i++ {
		sk.Add(float64(10*ms + int64(i)*ms*3))
	}
	s := Summary{Device: dev(0, "wifi-s"), Group: "wifi-s", Scenario: "walk", Sent: 300, Sketch: sk}
	if !st.Fold(&s, 5*time.Millisecond, SourceLearned) {
		t.Fatal("sketch fold refused")
	}
	for i := 0; i < 3; i++ {
		lost := Summary{Device: dev(0, "wifi-lost"), Group: "wifi-lost", Scenario: "walk", Sent: 5, Lost: 5}
		if !st.Fold(&lost, 0, SourceNone) {
			t.Fatal("lost fold refused")
		}
	}
	return st
}

// TestStatsJSONGolden pins the /stats and /v1/stream JSON of
// store-built cells byte for byte, per cell (the unmerged path) and per
// group (the merging path): how a track's percentiles are chosen must
// not move either body. The digests were recorded while tracks still
// had a histogram-percentile fallback. An empty track still omits
// p99_rank_err.
func TestStatsJSONGolden(t *testing.T) {
	want := map[Rollup][2]string{
		RollupCell:  {"a20408d040b6d4877130ca029a1b6e98324ccc5a23a3cb5ec58641225dc9bf34", "7e15e79a0309559df879c9c7df8f82cb2e70f74a12165f9bc601cc5c268e4a7d"},
		RollupGroup: {"2c3440f746053a074e8622c2eb165bb474573980aca13755d1fefae010795f7f", "6ee747526017286e750b9ba6093b55fb9967b0e2b916a299e16bba100e56a537"},
	}
	for _, r := range []Rollup{RollupCell, RollupGroup} {
		st := goldenStatsStore(t, r == RollupCell)
		cs, err := st.StatsQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(StatsResponse{Rollup: r, WindowMS: st.windowMS, Cells: cs})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := st.DeltasSince(0, r)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{fmt.Sprintf("%x", sha256.Sum256(stats)), fmt.Sprintf("%x", sha256.Sum256(stream))}
		if got != want[r] {
			t.Errorf("by=%s: /stats digest %s, /v1/stream digest %s; want %s, %s",
				r, got[0], got[1], want[r][0], want[r][1])
		}
		var lost *CellStats
		for i := range cs {
			if cs[i].Key.Group == "wifi-lost" {
				lost = &cs[i]
			}
		}
		if lost == nil || lost.Raw.Samples != 0 || lost.Punctured.Samples != 0 {
			t.Fatalf("by=%s: no empty-track cell in %s", r, stats)
		}
		row, err := json.Marshal(lost)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(row), "p99_rank_err") {
			t.Errorf("by=%s: empty tracks carry p99_rank_err: %s", r, row)
		}
	}
}
