//go:build race

package rpc

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is put into it, which the allocation gate must not read
// as a regression.
const raceEnabled = true
