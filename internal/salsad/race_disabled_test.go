//go:build !race

package salsad

// raceEnabled reports whether this test binary runs under the race detector.
const raceEnabled = false
