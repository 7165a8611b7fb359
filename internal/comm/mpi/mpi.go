// Package mpi implements an in-process message-passing world with the MPI
// collective operations APPFL uses (point-to-point send/recv, broadcast,
// gather, scatter, allreduce, barrier). Ranks are goroutines and links are
// buffered channels, so data really moves through the same call structure
// as MPI programs — without serialization, mirroring the zero-copy
// RDMA-enabled MPI path of the paper's Summit experiments (Section IV-C).
package mpi

import (
	"fmt"
	"sync"
	"time"
)

// message is one point-to-point payload with its tag.
type message struct {
	tag  int
	data []float64
}

// World is a communicator spanning size ranks. Create it once and hand each
// goroutine its Rank handle.
type World struct {
	size int
	// mailboxes[from][to] preserves per-pair FIFO ordering.
	mailboxes [][]chan message

	barrierMu  sync.Mutex
	barrierN   int
	barrierGen int
	barrierC   *sync.Cond
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	mb := make([][]chan message, size)
	for i := range mb {
		mb[i] = make([]chan message, size)
		for j := range mb[i] {
			mb[i][j] = make(chan message, 8)
		}
	}
	w := &World{size: size, mailboxes: mb}
	w.barrierC = sync.NewCond(&w.barrierMu)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns the communicator handle for rank r.
func (w *World) Rank(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.size))
	}
	return &Comm{world: w, rank: r}
}

// Comm is one rank's view of the world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank `to` with the given tag. The data slice is
// transferred by reference — like MPI with RDMA, no copy is made; the
// sender must not mutate it afterwards.
func (c *Comm) Send(to int, tag int, data []float64) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", to))
	}
	c.world.mailboxes[c.rank][to] <- message{tag: tag, data: data}
}

// Recv blocks until a message with the given tag arrives from rank `from`.
// Messages from one sender arrive in order; a tag mismatch is a protocol
// error and panics.
func (c *Comm) Recv(from int, tag int) []float64 {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", from))
	}
	m := <-c.world.mailboxes[from][c.rank]
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
	}
	return m.data
}

// RecvTimeout is Recv with a patience bound: ok reports whether a
// message arrived before the timeout (timeout <= 0 waits forever). The
// chunk-streaming ack receive uses it to honor its timeout.
func (c *Comm) RecvTimeout(from int, tag int, timeout time.Duration) ([]float64, bool) {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", from))
	}
	if timeout <= 0 {
		return c.Recv(from, tag), true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m := <-c.world.mailboxes[from][c.rank]:
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
		}
		return m.data, true
	case <-t.C:
		return nil, false
	}
}

// recvAny blocks for the next message from rank `from`, whatever its
// tag, and returns both. The FL server's reply receiver uses it to
// demultiplex streamed chunks from the update that settles the round.
func (c *Comm) recvAny(from int) (int, []float64) {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", from))
	}
	m := <-c.world.mailboxes[from][c.rank]
	return m.tag, m.data
}

// Bcast distributes root's data to every rank and returns the received
// slice (root returns its own slice unchanged).
func (c *Comm) Bcast(root int, data []float64) []float64 {
	const tag = -1
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r != root {
				c.Send(r, tag, data)
			}
		}
		return data
	}
	return c.Recv(root, tag)
}

// Gather collects every rank's contribution at root, indexed by rank; all
// non-root ranks receive nil. This mirrors MPI.gather() in the paper's
// server loop.
func (c *Comm) Gather(root int, contrib []float64) [][]float64 {
	const tag = -2
	if c.rank == root {
		out := make([][]float64, c.world.size)
		out[root] = contrib
		for r := 0; r < c.world.size; r++ {
			if r != root {
				out[r] = c.Recv(r, tag)
			}
		}
		return out
	}
	c.Send(root, tag, contrib)
	return nil
}

// Scatter distributes parts[r] to each rank r from root and returns the
// local part.
func (c *Comm) Scatter(root int, parts [][]float64) []float64 {
	const tag = -3
	if c.rank == root {
		if len(parts) != c.world.size {
			panic(fmt.Sprintf("mpi: Scatter needs %d parts, got %d", c.world.size, len(parts)))
		}
		for r := 0; r < c.world.size; r++ {
			if r != root {
				c.Send(r, tag, parts[r])
			}
		}
		return parts[root]
	}
	return c.Recv(root, tag)
}

// Allreduce sums equal-length vectors across all ranks and returns the sum
// on every rank (gather-to-0 + reduce + broadcast).
func (c *Comm) Allreduce(contrib []float64) []float64 {
	const root = 0
	parts := c.Gather(root, contrib)
	var sum []float64
	if c.rank == root {
		sum = make([]float64, len(contrib))
		for _, p := range parts {
			if len(p) != len(sum) {
				panic("mpi: Allreduce length mismatch across ranks")
			}
			for i, v := range p {
				sum[i] += v
			}
		}
	}
	return c.Bcast(root, sum)
}

// Barrier blocks until all ranks have entered it.
func (c *Comm) Barrier() {
	w := c.world
	w.barrierMu.Lock()
	gen := w.barrierGen
	w.barrierN++
	if w.barrierN == w.size {
		w.barrierN = 0
		w.barrierGen++
		w.barrierC.Broadcast()
	} else {
		for gen == w.barrierGen {
			w.barrierC.Wait()
		}
	}
	w.barrierMu.Unlock()
}
