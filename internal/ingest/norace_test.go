//go:build !race

package ingest

const raceDetectorEnabled = false
