//go:build race

package protocol

// raceEnabled skips the allocation bounds: the race detector's own
// bookkeeping allocates.
const raceEnabled = true
