//go:build race

package testutil

// RaceEnabled reports that the race detector is on. It instruments every
// allocation and makes sync.Pool drop a share of what is put into it, so
// allocation gates prove nothing under it and skip.
const RaceEnabled = true
