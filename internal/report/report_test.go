package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Table X", "phone", "rtt", "mean")
	tb.AddRow("Nexus 5", "30ms", "33.38")
	tb.AddRow("HTC One", "60ms", "64.1")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Column starts must align between header and rows.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "rtt") != strings.Index(row, "30ms") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestShortRowsPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if len(tb.rows) != 1 {
		t.Fatal("row not added")
	}
	_ = tb.String() // must not panic
}

func TestMeanCIFormat(t *testing.T) {
	s := stats.Sample{ms(30), ms(31), ms(32)}
	got := MeanCI(s)
	if !strings.Contains(got, "31.00") || !strings.Contains(got, "±") {
		t.Errorf("MeanCI = %q", got)
	}
}

func TestMinMeanMaxFormat(t *testing.T) {
	s := stats.Sample{ms(1), ms(2), ms(3)}
	got := MinMeanMax(s)
	if got != "1.000 / 2.000 / 3.000" {
		t.Errorf("MinMeanMax = %q", got)
	}
}

func TestRenderBoxMarks(t *testing.T) {
	s := stats.Sample{ms(1), ms(2), ms(3), ms(4), ms(5)}
	out := RenderBox("test", s.Box(), 0, ms(6), 40)
	for _, want := range []string{"M", "|", "=", "test"} {
		if !strings.Contains(out, want) {
			t.Errorf("box render missing %q: %s", want, out)
		}
	}
}

func TestRenderBoxDegenerateRange(t *testing.T) {
	s := stats.Sample{ms(2), ms(2)}
	out := RenderBox("flat", s.Box(), ms(2), ms(2), 30) // zero span must not panic
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestRenderCDF(t *testing.T) {
	e := stats.NewECDF(stats.Sample{ms(30), ms(31), ms(35), ms(40)})
	out := RenderCDF("AcuteMon", e, 40)
	if !strings.Contains(out, "p50") || !strings.Contains(out, "AcuteMon") {
		t.Errorf("cdf render missing parts:\n%s", out)
	}
	empty := RenderCDF("none", stats.NewECDF(nil), 40)
	if !strings.Contains(empty, "no samples") {
		t.Errorf("empty cdf render = %q", empty)
	}
}

func TestCDFGrid(t *testing.T) {
	a := stats.NewECDF(stats.Sample{ms(30), ms(31)})
	b := stats.NewECDF(stats.Sample{ms(40), ms(45)})
	out := CDFGrid("Fig 8", []string{"AcuteMon", "ping"}, []*stats.ECDF{a, b})
	for _, want := range []string{"Fig 8", "AcuteMon", "ping", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid missing %q:\n%s", want, out)
		}
	}
	// nil series renders a dash, not a panic
	out = CDFGrid("x", []string{"a"}, []*stats.ECDF{nil})
	if !strings.Contains(out, "-") {
		t.Error("nil series not rendered as dash")
	}
}
