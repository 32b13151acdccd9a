//go:build !race

package fleet

const raceDetectorEnabled = false
