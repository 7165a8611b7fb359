//go:build race

package nn

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so the allocation gate proves nothing there and skips.
const raceEnabled = true
