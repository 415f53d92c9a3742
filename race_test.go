//go:build race

package openmeta

// raceEnabled reports a build with the race detector, whose instrumentation
// allocates where an ordinary build does not: allocation pins skip under it.
const raceEnabled = true
