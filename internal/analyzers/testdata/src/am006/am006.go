// Package am006fix exercises AM006: an exported name with no non-test
// use is reported. A fixture package is its own only use site, so its
// entry point carries a waiver.
package am006fix

import "fmt"

// Unused has no caller.
func Unused() {} // want "AM006: exported func Unused has no non-test use"

// Limit is read by nothing.
const Limit = 3 // want "AM006: exported const Limit has no non-test use"

// Used is called from Entry.
func Used() int { return 1 }

// Lonely is named only by its own method, which does not count.
type Lonely struct{ n int } // want "AM006: exported type Lonely has no non-test use"

// String completes fmt.Stringer, so it is not reported.
func (l Lonely) String() string { return fmt.Sprint(Lonely{l.n}.n) }

// area is the fixture's interface; Square satisfies it.
type area interface{ Area() float64 }

// Square is constructed by Entry.
type Square struct{ Side float64 }

// Area completes area, so it needs no direct caller.
func (s Square) Area() float64 { return s.Side * s.Side }

// Entry is the fixture's root.
func Entry() string { /* wantsup "AM006: exported func Entry has no non-test use" */ //acutemon:ignore AM006 fixture entry point: the golden test is its only caller
	return fmt.Sprint(Used(), Square{Side: 2})
}
