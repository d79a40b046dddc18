//go:build !race

package dgk

const raceEnabled = false
