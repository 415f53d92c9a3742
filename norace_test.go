//go:build !race

package openmeta

const raceEnabled = false
