// Package testutil holds helpers shared by the repository's tests: the
// race-detector switch, an allocation meter and the runtime settling the
// allocation gates around blocking syscalls need. Only test files import it.
package testutil

import "runtime"

// AllocsPer runs f n times at the current GOMAXPROCS and returns the mean
// mallocs and bytes allocated per run. testing.AllocsPerRun would drop to
// GOMAXPROCS 1 and never enter the parallel loops a gate means to cover.
func AllocsPer(n int, f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
