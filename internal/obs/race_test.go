//go:build race

package obs

// raceEnabled skips the allocation bounds: the race detector's own
// bookkeeping allocates.
const raceEnabled = true
