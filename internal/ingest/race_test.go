//go:build race

package ingest

// The race detector instruments memory accesses and allocates for its
// own bookkeeping, so allocation counts measured under it are not the
// program's.
const raceDetectorEnabled = true
