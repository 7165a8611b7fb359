package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// ChunkPipe is an in-memory chunk transport used by tests and the stream
// benchmark: per-client channel pairs carrying wire-encoded chunks up
// and acks down, with scriptable loss. Messages cross the pipe as codec
// bytes — the same serialize/deserialize round trip the real transports
// pay — so a struct reused by the sender can never alias the receiver's
// copy, and malformed chunks are caught by the same Unmarshal validation.
type ChunkPipe struct {
	chunks []chan []byte
	acks   []chan []byte

	// DropChunk, when set, is consulted on every chunk send with the
	// sending client, the chunk index, and the per-(round,index) attempt
	// number (0 = first transmission); returning true silently discards
	// the chunk — the loss the ack-paced retry must absorb.
	DropChunk func(client, round, index uint32, attempt int) bool
	// DropAck is DropChunk for the ack direction.
	DropAck func(client, round, index uint32, attempt int) bool

	mu       sync.Mutex
	attempts map[[3]uint32]int // chunk transmissions per (client, round, index)
	ackTries map[[3]uint32]int // ack transmissions per (client, round, index)
}

// NewChunkPipe builds a pipe for numClients clients. Queue capacity 4
// comfortably holds the window-1 steady state (one chunk in flight plus
// a retransmit racing its late ack).
func NewChunkPipe(numClients int) *ChunkPipe {
	p := &ChunkPipe{
		chunks:   make([]chan []byte, numClients),
		acks:     make([]chan []byte, numClients),
		attempts: map[[3]uint32]int{},
		ackTries: map[[3]uint32]int{},
	}
	for i := range p.chunks {
		p.chunks[i] = make(chan []byte, 4)
		p.acks[i] = make(chan []byte, 4)
	}
	return p
}

// Client returns client id's sending end.
func (p *ChunkPipe) Client(id int) *ChunkPipeClient { return &ChunkPipeClient{p: p, id: id} }

// RecvChunkFrom blocks for the next chunk from one client.
func (p *ChunkPipe) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	if client < 0 || client >= len(p.chunks) {
		return nil, fmt.Errorf("comm: chunk receive from unknown client %d", client)
	}
	b := <-p.chunks[client]
	mc := NewChunk()
	if err := mc.Unmarshal(wire.NewDecoder(b)); err != nil {
		return nil, err
	}
	return mc, nil
}

// SendChunkAck acknowledges one chunk, subject to the DropAck script.
func (p *ChunkPipe) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= len(p.acks) {
		return fmt.Errorf("comm: chunk ack to unknown client %d", client)
	}
	key := [3]uint32{a.ClientID, a.Round, a.Index}
	p.mu.Lock()
	attempt := p.ackTries[key]
	p.ackTries[key]++
	drop := p.DropAck != nil && p.DropAck(a.ClientID, a.Round, a.Index, attempt)
	p.mu.Unlock()
	if drop {
		return nil
	}
	var e wire.Encoder
	p.acks[client] <- e.Encode(a)
	return nil
}

// ChunkPipeClient is one client's ChunkSender end of a ChunkPipe.
type ChunkPipeClient struct {
	p  *ChunkPipe
	id int
}

// SendChunk uploads one chunk, subject to the pipe's DropChunk script.
func (c *ChunkPipeClient) SendChunk(mc *wire.ModelChunk) error {
	key := [3]uint32{mc.ClientID, mc.Round, mc.Index}
	c.p.mu.Lock()
	attempt := c.p.attempts[key]
	c.p.attempts[key]++
	drop := c.p.DropChunk != nil && c.p.DropChunk(mc.ClientID, mc.Round, mc.Index, attempt)
	c.p.mu.Unlock()
	if drop {
		return nil
	}
	var e wire.Encoder
	c.p.chunks[c.id] <- e.Encode(mc)
	return nil
}

// RecvChunkAck blocks for the next ack; timeout <= 0 waits forever.
func (c *ChunkPipeClient) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case b := <-c.p.acks[c.id]:
		var a wire.ChunkAck
		if err := a.Unmarshal(wire.NewDecoder(b)); err != nil {
			return nil, err
		}
		return &a, nil
	case <-timer:
		return nil, ErrAckTimeout
	}
}

// Interface conformance checks.
var (
	_ ChunkGatherer = (*ChunkPipe)(nil)
	_ ChunkSender   = (*ChunkPipeClient)(nil)
)
