// Package report renders experiment results as aligned text tables and
// simple ASCII charts. The bench harness uses it to print each of the
// paper's tables and figures in a form directly comparable with the
// published ones.
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// MeanCI formats "mean ±ci" in milliseconds, the cell format of the
// paper's Tables 2 and 5.
func MeanCI(s stats.Sample) string {
	return fmt.Sprintf("%.2f ±%.2f", stats.Millis(s.Mean()), stats.Millis(s.CI95()))
}

// MinMeanMax formats "min / mean / max" in milliseconds (Table 3 cells).
func MinMeanMax(s stats.Sample) string {
	return fmt.Sprintf("%.3f / %.3f / %.3f",
		stats.Millis(s.Min()), stats.Millis(s.Mean()), stats.Millis(s.Max()))
}

// RenderBox draws one horizontal ASCII box plot scaled to [lo, hi] over
// width characters.
func RenderBox(label string, b stats.Boxplot, lo, hi time.Duration, width int) string {
	if width < 20 {
		width = 20
	}
	span := float64(hi - lo)
	if span <= 0 {
		span = 1
	}
	pos := func(d time.Duration) int {
		p := int(float64(d-lo) / span * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	line := make([]rune, width)
	for i := range line {
		line[i] = ' '
	}
	wl, q1, med, q3, wh := pos(b.WhiskerLo), pos(b.Q1), pos(b.Median), pos(b.Q3), pos(b.WhiskerHi)
	for i := wl; i <= wh && i < width; i++ {
		line[i] = '-'
	}
	for i := q1; i <= q3 && i < width; i++ {
		line[i] = '='
	}
	line[wl] = '|'
	line[wh] = '|'
	line[med] = 'M'
	for _, o := range b.Outliers {
		line[pos(o)] = 'o'
	}
	return fmt.Sprintf("%-16s [%s]  med=%.2fms q1=%.2f q3=%.2f n=%d",
		label, string(line), stats.Millis(b.Median), stats.Millis(b.Q1), stats.Millis(b.Q3), b.N)
}

// RenderCDF prints an ECDF as rows of (ms, probability) pairs at the
// given probability steps, plus a crude curve.
func RenderCDF(label string, e *stats.ECDF, width int) string {
	if e.N() == 0 {
		return label + ": (no samples)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, e.N())
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99} {
		fmt.Fprintf(&b, "  p%02.0f = %8.2f ms\n", q*100, stats.Millis(e.Quantile(q)))
	}
	return b.String()
}

// CDFGrid renders several ECDFs side by side: one row per quantile, one
// column per series — the textual analogue of the paper's Figure 8.
func CDFGrid(title string, labels []string, cdfs []*stats.ECDF) string {
	t := NewTable(title, append([]string{"quantile"}, labels...)...)
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99} {
		cells := []string{fmt.Sprintf("p%02.0f", q*100)}
		for _, e := range cdfs {
			if e == nil || e.N() == 0 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.2f ms", stats.Millis(e.Quantile(q))))
		}
		t.AddRow(cells...)
	}
	return t.String()
}
