package core

import (
	"runtime"
	"sync"
)

// This file implements the sharded execution layer of the aggregation hot
// path. Every aggregation rule in this package is element-wise: the value
// of w[i] after a batch depends only on the prior w[i] and the i-th
// coordinate of each update, folded in a fixed per-element order (batch
// order). Splitting the index space [0,dim) into contiguous chunks and
// processing chunks on different workers therefore yields bit-identical
// results to the serial loop — no floating-point reassociation happens,
// because no cross-element reduction exists. Chunk boundaries are a pure
// function of (n, workers), never of GOMAXPROCS or scheduling, so a run
// at width 8 on a laptop and on a cluster produces the same bytes.
// A run's width is GOMAXPROCS; tests pin one through BaseServer.Workers.

// minShard is the smallest chunk worth shipping to a worker: below this,
// the channel handoff costs more than the arithmetic it parallelizes.
const minShard = 4096

// span is one contiguous index chunk dispatched to the pool.
type span struct{ lo, hi int }

// chunkPool is a process-wide pool of long-lived workers behind every
// sharded fold and parallel decode. Workers are started lazily up to the
// widest requested width and block on the task channel between calls.
// The mutex serializes concurrent callers: one operation owns the workers
// at a time, which keeps the pool allocation-free in steady state (no
// per-call task groups). Ops must not recursively submit to the pool.
type chunkPool struct {
	mu      sync.Mutex
	tasks   chan span
	started int
	op      func(lo, hi int)
	wg      sync.WaitGroup
}

// aggPool is the shared pool used by all aggregators and DecodeUpdates.
var aggPool chunkPool

// resolveWorkers maps a Workers value (BaseServer.Workers, DecodeUpdates'
// workers) to an effective width: 0 selects GOMAXPROCS, anything else is
// taken literally.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func (p *chunkPool) worker() {
	for s := range p.tasks {
		p.op(s.lo, s.hi)
		p.wg.Done()
	}
}

// run executes op over [0,n) split into at most `workers` contiguous
// chunks of at least grain elements each. The caller's goroutine processes
// the first chunk itself, so a width-w run needs only w−1 pool workers.
// With an effective width of 1 (or n < 2·grain) the op runs inline —
// the serial path, with zero synchronization.
func (p *chunkPool) run(n, workers, grain int, op func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	// Floor, not ceil: n just past a grain boundary must not ship two
	// sub-grain chunks — below grain, handoff costs more than it saves.
	chunks := workers
	if max := n / grain; chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size // re-derive so no chunk is empty
	if chunks <= 1 {
		op(0, n)
		return
	}
	p.mu.Lock()
	if p.tasks == nil {
		p.tasks = make(chan span, 64)
	}
	for p.started < chunks-1 {
		p.started++
		go p.worker()
	}
	p.op = op
	p.wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		p.tasks <- span{lo, hi}
	}
	op(0, size) // the caller carries the first chunk
	p.wg.Wait()
	p.op = nil
	p.mu.Unlock()
}

// shardRun is the dim-space entry point used by the aggregators.
func shardRun(dim, workers int, op func(lo, hi int)) {
	aggPool.run(dim, resolveWorkers(workers), minShard, op)
}

// eachRun fans op out over n independent items (grain 1) — the per-update
// decode path, where each item is itself O(dim) work.
func eachRun(n, workers int, op func(lo, hi int)) {
	aggPool.run(n, resolveWorkers(workers), 1, op)
}
