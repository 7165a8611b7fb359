// Package mpi implements an in-process message-passing world: ranks are
// goroutines and links are buffered channels with per-pair FIFO order, so
// data moves through the same tagged point-to-point call structure as an
// MPI program. The FL transport on top of it (transport.go) sends the
// same wire.Encoder frames as comm/rpc and comm/pubsub and counts the same
// bytes; what it leaves out is the socket, standing in for the zero-copy
// RDMA-enabled MPI path of the paper's Summit experiments (Section IV-C).
package mpi

import (
	"fmt"
	"time"
)

// message is one point-to-point frame with its tag.
type message struct {
	tag  int
	data []byte
}

// World is a communicator spanning size ranks. Create it once and hand each
// goroutine its Rank handle.
type World struct {
	size int
	// mailboxes[from][to] preserves per-pair FIFO ordering.
	mailboxes [][]chan message
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
	return &World{size: size, mailboxes: mb}
}

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

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank `to` with the given tag. The frame is
// transferred by reference — like MPI with RDMA, no copy is made; the
// sender must not mutate it afterwards.
func (c *Comm) Send(to int, tag int, data []byte) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", to))
	}
	c.world.mailboxes[c.rank][to] <- message{tag: tag, data: data}
}

// Recv blocks until a message with the given tag arrives from rank `from`.
// Messages from one sender arrive in order; a tag mismatch is a protocol
// error and panics.
func (c *Comm) Recv(from int, tag int) []byte {
	data, _ := c.RecvTimeout(from, tag, 0)
	return data
}

// RecvTimeout is Recv with a patience bound: ok reports whether a
// message arrived before the timeout (timeout <= 0 waits forever). The
// chunk-streaming ack receive uses it to honor its timeout.
func (c *Comm) RecvTimeout(from int, tag int, timeout time.Duration) ([]byte, bool) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case m := <-c.mailbox(from):
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
		}
		return m.data, true
	case <-timer:
		return nil, false
	}
}

// mailbox returns the link from rank `from` to this rank.
func (c *Comm) mailbox(from int) chan message {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", from))
	}
	return c.world.mailboxes[from][c.rank]
}
