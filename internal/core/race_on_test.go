//go:build race

package core

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so the allocation gates prove nothing there and skip.
const raceEnabled = true
