package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(0, "dpc", "fn", "")
	tr.Addf(0, "dpc", "fn", "x=%d", 1)
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil || tr.Filter("dpc") != nil || tr.Names() != nil {
		t.Fatal("nil trace should behave as empty")
	}
	if _, ok := tr.Find("fn", 0); ok {
		t.Fatal("nil trace found an event")
	}
	if got := tr.Render(); got != "(empty trace)\n" {
		t.Fatalf("nil render = %q", got)
	}
}

func TestAddAndFilter(t *testing.T) {
	tr := New(0)
	tr.Add(1*time.Millisecond, "dpc", "dhdsdio_dpc", "")
	tr.Add(2*time.Millisecond, "rxf", "dhd_rxf_dequeue", "")
	tr.Addf(3*time.Millisecond, "dpc", "dhdsdio_txpkt", "len=%d", 98)
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	dpc := tr.Filter("dpc")
	if len(dpc) != 2 || dpc[1].Attrs != "len=98" {
		t.Fatalf("filter = %+v", dpc)
	}
}

func TestMaxCap(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Add(time.Duration(i), "a", "e", "")
	}
	if tr.Len() != 2 {
		t.Fatalf("capped trace len = %d, want 2", tr.Len())
	}
}

func TestFind(t *testing.T) {
	tr := New(0)
	tr.Add(1*time.Millisecond, "a", "x", "")
	tr.Add(5*time.Millisecond, "a", "x", "second")
	e, ok := tr.Find("x", 2*time.Millisecond)
	if !ok || e.Attrs != "second" {
		t.Fatalf("Find = %+v, %v", e, ok)
	}
	if _, ok := tr.Find("y", 0); ok {
		t.Fatal("found nonexistent event")
	}
}

func TestNamesDistinctOrdered(t *testing.T) {
	tr := New(0)
	tr.Add(0, "a", "first", "")
	tr.Add(1, "a", "second", "")
	tr.Add(2, "a", "first", "")
	names := tr.Names()
	if len(names) != 2 || names[0] != "first" || names[1] != "second" {
		t.Fatalf("names = %v", names)
	}
}

func TestRenderSortsByTime(t *testing.T) {
	tr := New(0)
	tr.Add(5*time.Millisecond, "b", "later", "")
	tr.Add(1*time.Millisecond, "a", "earlier", "")
	out := tr.Render()
	if strings.Index(out, "earlier") > strings.Index(out, "later") {
		t.Fatalf("render not time-sorted:\n%s", out)
	}
}

func TestRenderCallChain(t *testing.T) {
	tr := New(0)
	tr.Add(0, "dpc", "dhd_bus_dpc", "")
	tr.Add(time.Microsecond, "dpc", "dhdsdio_dpc", "")
	tr.Add(2*time.Microsecond, "dpc", "dhdsdio_txpkt", "")
	out := tr.RenderCallChain("dpc")
	for _, want := range []string{"[dpc]", "dhd_bus_dpc", "dhdsdio_dpc", "dhdsdio_txpkt", "├─", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("call chain missing %q:\n%s", want, out)
		}
	}
	if got := tr.RenderCallChain("nobody"); !strings.Contains(got, "no events") {
		t.Errorf("empty chain render = %q", got)
	}
}

func TestReset(t *testing.T) {
	tr := New(0)
	tr.Add(0, "a", "x", "")
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear events")
	}
}

// Campaign testbeds run untraced, so every Addf site in the models runs
// on a nil trace once per packet: it must not box its arguments.
func TestNilTraceAddfAllocatesNothing(t *testing.T) {
	var tr *Trace
	id := uint64(1 << 20)
	if n := testing.AllocsPerRun(100, func() {
		id++
		tr.Addf(0, "tx", "dhd_start_xmit", "pkt=%d", id)
	}); n != 0 {
		t.Fatalf("nil-trace Addf: %v allocs per call, want 0", n)
	}
}

type testMAC [6]byte

func (m testMAC) String() string { return strings.Repeat("m", int(m[5])) }

type testDir int

func (d testDir) String() string { return [...]string{"tx", "rx"}[d] }

// Addf's copies of its arguments keep their types, so the attrs it
// records are fmt.Sprintf's, Stringer methods included.
func TestAddfFormatsLikeSprintf(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"pkt=%d", []any{uint64(1 << 40)}},
		{"dvsend=%v", []any{1234567 * time.Nanosecond}},
		{"asleep=%t", []any{true}},
		{"sta=%s ps=%t", []any{testMAC{0, 0, 0, 0, 0, 3}, false}},
		{"sta=%s depth=%d", []any{testMAC{5: 2}, 300}},
		{"dir=%s lat=%v", []any{testDir(1), -time.Millisecond}},
		{"k=%d type=%s", []any{int8(-7), "icmp"}},
		{"f=%v u=%d", []any{2.5, uint16(65535)}},
		{"none", nil},
	}
	tr := New(0)
	for i, c := range cases {
		tr.Addf(time.Duration(i), "a", "n", c.format, c.args...)
		if got, want := tr.Events()[i].Attrs, fmt.Sprintf(c.format, c.args...); got != want {
			t.Errorf("Addf(%q) = %q, want %q", c.format, got, want)
		}
	}
}
