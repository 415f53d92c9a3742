//go:build !race

package dcg

const raceEnabled = false
