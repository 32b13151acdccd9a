package ingest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
)

// TestChurnCellFootprint pins what a cell's histograms cost: a fresh
// cell holding three RTTs stores only the bins it touched, not the
// geometry's 1000 per histogram (16 KB per cell stored densely), and a
// cell that touches every bin never holds storage past the geometry.
func TestChurnCellFootprint(t *testing.T) {
	t.Run("three-rtt-cells", func(t *testing.T) {
		const cells, maxBytesPerCell = 1000, 3 << 10
		sums := make([]Summary, cells)
		for i := range sums {
			sums[i] = Summary{Device: fmt.Sprintf("dev-%d", i), Group: "g", Scenario: "churn", Sent: 3,
				RTTs: []int64{int64(30 * time.Millisecond), int64(31 * time.Millisecond), int64(45 * time.Millisecond)}}
		}
		st := NewStore(0, 0)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range sums {
			if !st.Fold(&sums[i], time.Millisecond, SourceGlobal) {
				t.Fatalf("summary %d dropped", i)
			}
		}
		runtime.ReadMemStats(&after)
		if n := st.Cells(); n != cells {
			t.Fatalf("%d cells resident, want %d", n, cells)
		}
		perCell := (after.TotalAlloc - before.TotalAlloc) / cells
		t.Logf("%d B allocated per 3-RTT cell", perCell)
		if perCell > maxBytesPerCell {
			t.Fatalf("minting a 3-RTT cell allocated %d B, want at most %d", perCell, maxBytesPerCell)
		}
	})

	t.Run("every-bin", func(t *testing.T) {
		// RTTs arrive from the middle outward, so both histograms' spans
		// grow toward both ends until they cover all 1000 bins.
		st := NewStore(0, 0)
		w := agg.DurationHistHi / agg.DurationHistBins
		mid := agg.DurationHistBins / 2
		for step := 0; step < mid; step++ {
			s := Summary{Device: "hot", Sent: 2, RTTs: []int64{
				int64(time.Duration(mid+step) * w), int64(time.Duration(mid-1-step) * w)}}
			if !st.Fold(&s, 0, SourceNone) {
				t.Fatal("summary dropped")
			}
			st.each(0, mergeTwins, func(c *Cell) {
				for _, h := range []*agg.Hist{c.RawHist, c.PuncturedHist} {
					if _, span := h.Span(); cap(span) > h.Bins() {
						t.Fatalf("step %d: histogram capacity %d exceeds %d bins", step, cap(span), h.Bins())
					}
				}
			})
		}
		st.each(0, mergeTwins, func(c *Cell) {
			for b := 0; b < c.RawHist.Bins(); b++ {
				if c.RawHist.Count(b) != 1 {
					t.Fatalf("bin %d holds %d, want 1", b, c.RawHist.Count(b))
				}
			}
		})
	})
}
