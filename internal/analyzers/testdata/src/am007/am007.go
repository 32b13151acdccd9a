// Package am007fix exercises AM007: an exported field of a model
// package that no non-test code reads is reported. Writes are not
// reads, and the fixture has no tests, so a field only a test would
// read is a finding. Writing through a pointer-typed field, comparing a
// struct with == and keying a map by it do read: Link, FlowKey and Pair
// report nothing.
package am007fix

import "sync/atomic"

// Counters is bumped on every event and read by no one.
type Counters struct {
	Dozes uint64 // want "AM007: exported field Counters.Dozes has no non-test read"
}

// Station is the fixture's model layer.
type Station struct {
	// Stats is only ever written through (s.Stats.Dozes++).
	Stats Counters // want "AM007: exported field Station.Stats has no non-test read"
	// Polls is set at construction; only a test would read it.
	Polls int // want "AM007: exported field Station.Polls has no non-test read"
	// Served and Bytes are written atomically and never loaded.
	Served atomic.Uint64 // want "AM007: exported field Station.Served has no non-test read"
	Bytes  int64         // want "AM007: exported field Station.Bytes has no non-test read"
	// Airtime is only op-assigned.
	Airtime int64 // want "AM007: exported field Station.Airtime has no non-test read"
	// Name is read by Label.
	Name string
	// Seen is read by reflection, which a static rule cannot see.
	Seen int /* wantsup "AM007: exported field Station.Seen has no non-test read" */ //acutemon:ignore AM007 fixture stand-in for a field encoding/json reads
	// hits is unexported: out of scope.
	hits int
}

// Profile is aliased by the facade, so its fields are public API.
type Profile struct {
	Knob int
}

// NewStation builds a station.
func NewStation(name string) *Station {
	return &Station{Name: name, Polls: 1, Seen: 1}
}

// Doze records one doze.
func (s *Station) Doze(n int64) {
	s.Stats.Dozes++
	s.Served.Add(1)
	atomic.AddInt64(&s.Bytes, n)
	s.Airtime += n
	s.hits++
}

// Label reads Name.
func (s *Station) Label() string { return s.Name }

// Link is only written through its pointer-typed field: l.Peer.Name = n
// loads Peer, so Peer is read.
type Link struct {
	Peer *Station
}

// Rename renames the peer.
func (l *Link) Rename(n string) { l.Peer.Name = n }

// FlowKey is read only as a map key: every lookup compares its fields.
type FlowKey struct {
	Src, Dst int
}

// Flows counts packets per flow.
type Flows struct {
	byKey map[FlowKey]int
}

// Count counts one packet of the flow src→dst.
func (f *Flows) Count(src, dst int) { f.byKey[FlowKey{src, dst}]++ }

// Pair is read only by ==, which compares its fields and those of its
// nested struct.
type Pair struct {
	A    int
	Span struct{ Lo, Hi int }
}

// Same reports whether two pairs match.
func Same(a, b Pair) bool { return a == b }
