//go:build race

package salsad

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation allocates; the allocation assertions skip.
const raceEnabled = true
