package testutil

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// SettleRuntime readies the runtime for an allocation gate around code
// that blocks in syscalls, so that what the gate counts is the code's own
// allocations. Three runtime events would otherwise land in such a window
// now and then, each allocating on the runtime's account:
//
//   - a syscall that outlasts a scheduler tick has its P handed to another
//     thread, and creating that thread allocates — so GOMAXPROCS+2
//     goroutines park at once, each wired to a thread of its own, and
//     leave the runtime that many idle threads to reuse;
//   - a timer armed on a P whose timer heap never held one grows the heap —
//     each parked goroutine sleeps first, arming timers across the Ps;
//   - a collection still running flushes the per-P allocation caches into
//     the counters, booking allocations made before the window inside it,
//     and the background scavenger it wakes arms a timer — so a forced
//     collection and a full scavenge finish first.
func SettleRuntime() {
	n := runtime.GOMAXPROCS(0) + 2
	var parked, done sync.WaitGroup
	release := make(chan struct{})
	parked.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			// Unlocked before exiting: a goroutine that exits locked takes
			// its thread with it.
			defer runtime.UnlockOSThread()
			time.Sleep(time.Millisecond)
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
	debug.FreeOSMemory()
}
