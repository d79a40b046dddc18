//go:build race

package transport

// raceEnabled skips the allocation bounds: the race detector's own
// bookkeeping allocates.
const raceEnabled = true
