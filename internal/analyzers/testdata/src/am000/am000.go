// Package am000fix exercises the suppression grammar itself: a
// malformed waiver, or one that waives no finding, is an AM000 finding. Loaded
// under a repro/internal/ingest import path so a live AM002 finding
// can sit next to its broken waiver.
package am000fix

import "encoding/binary"

// BadCode tries to waive with an invalid code; the waiver is flagged
// and the finding it aimed at survives.
func BadCode(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	//acutemon:ignore AM2 code must be AM0xx /* want "AM000: malformed suppression" */
	return make([]byte, n) // want "AM002: allocation sized by wire-read value n"
}

// NoReason gives no justification; the waiver itself is the finding.
func NoReason() {
	_ = 0 /* want "AM000: suppression of AM003 without a reason" */ //acutemon:ignore AM003
}

// Stale waives a code that finds nothing on its line: a waiver that
// waives nothing is itself the finding.
func Stale() int {
	return 1 /* want "AM000: suppression of AM002 waives no finding" */ //acutemon:ignore AM002 the cap check this excused is gone
}
