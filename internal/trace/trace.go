// Package trace records time-ordered event traces. The simulated WNIC
// drivers use it to reproduce the paper's Figures 4 and 5 (the bcmdhd
// function-call chains for packet send and receive), and AcuteMon uses it
// for the Figure 6 measurement timeline.
package trace

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Event is one trace record.
type Event struct {
	At    time.Duration
	Actor string // e.g. "dpc", "rxf", "BT", "MT"
	Name  string // function or action name
	Attrs string // free-form details
}

// String renders the event on one line.
func (e Event) String() string {
	s := fmt.Sprintf("%12v  %-8s %s", e.At, e.Actor, e.Name)
	if e.Attrs != "" {
		s += "  (" + e.Attrs + ")"
	}
	return s
}

// Trace is an append-only event log. The zero value is ready to use; a
// nil *Trace discards events, so components can be traced optionally
// without nil checks at every call site.
type Trace struct {
	events []Event
	max    int
}

// New returns a trace that keeps at most max events (0 = unlimited).
func New(max int) *Trace { return &Trace{max: max} }

// Add appends an event; it is a no-op on a nil trace.
func (t *Trace) Add(at time.Duration, actor, name, attrs string) {
	if t == nil {
		return
	}
	if t.max > 0 && len(t.events) >= t.max {
		return
	}
	t.events = append(t.events, Event{At: at, Actor: actor, Name: name, Attrs: attrs})
}

// Addf is Add with a formatted attrs string. It allocates nothing on a
// nil trace: the caller boxes args, and because Addf formats copies of
// them and never the originals, that boxing stays on the caller's stack.
// Args must be booleans, integers, floats or strings, of any named type
// (so Stringers such as enums work), or arrays of these.
func (t *Trace) Addf(at time.Duration, actor, name, format string, args ...any) {
	if t == nil {
		return
	}
	own := make([]any, len(args))
	for i, a := range args {
		own[i] = copyArg(reflect.ValueOf(a)).Interface()
	}
	t.Add(at, actor, name, fmt.Sprintf(format, own...))
}

// copyArg returns a fresh copy of v of the same type, so fmt still finds
// its String method. It reads v by kind: none of v's storage escapes.
func copyArg(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Bool:
		c.SetBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.SetInt(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.SetUint(v.Uint())
	case reflect.Float32, reflect.Float64:
		c.SetFloat(v.Float())
	case reflect.String:
		c.SetString(v.String())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(copyArg(v.Index(i)))
		}
	default:
		panic("trace: Addf argument of unsupported kind " + v.Kind().String())
	}
	return c
}

// Events returns the recorded events in insertion order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events (0 for nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Reset discards all events.
func (t *Trace) Reset() {
	if t != nil {
		t.events = t.events[:0]
	}
}

// Filter returns the events whose actor matches.
func (t *Trace) Filter(actor string) []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, e := range t.events {
		if e.Actor == actor {
			out = append(out, e)
		}
	}
	return out
}

// Find returns the first event with the given name after (inclusive) at,
// or a zero Event and false.
func (t *Trace) Find(name string, at time.Duration) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	for _, e := range t.events {
		if e.Name == name && e.At >= at {
			return e, true
		}
	}
	return Event{}, false
}

// Names returns the distinct event names in first-appearance order.
func (t *Trace) Names() []string {
	if t == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range t.events {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	return out
}

// Render formats the whole trace, sorted by time (stably, so equal-time
// events keep insertion order).
func (t *Trace) Render() string {
	if t == nil || len(t.events) == 0 {
		return "(empty trace)\n"
	}
	evs := append([]Event(nil), t.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCallChain renders events as an indented call chain in the style
// of the paper's Figures 4 and 5: events at the same actor are listed in
// order with arrows between successive calls.
func (t *Trace) RenderCallChain(actor string) string {
	evs := t.Filter(actor)
	if len(evs) == 0 {
		return "(no events for " + actor + ")\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]\n", actor)
	for i, e := range evs {
		prefix := "└─"
		if i < len(evs)-1 {
			prefix = "├─"
		}
		fmt.Fprintf(&b, "  %s %s  @%v", prefix, e.Name, e.At)
		if e.Attrs != "" {
			fmt.Fprintf(&b, "  (%s)", e.Attrs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
