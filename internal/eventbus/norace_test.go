//go:build !race

package eventbus

const raceEnabled = false
