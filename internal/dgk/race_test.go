//go:build race

package dgk

// raceEnabled skips the allocation bounds: the race detector's own
// bookkeeping allocates.
const raceEnabled = true
