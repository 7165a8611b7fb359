package comm

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// ChunkPipe is an in-memory chunk transport used by tests and the stream
// benchmark: per-client channels carrying wire-encoded chunks up and acks
// down. Messages cross the pipe as codec bytes — the same
// serialize/deserialize round trip the real transports pay — so a struct
// reused by the sender can never alias the receiver's copy, and malformed
// chunks are caught by the same Unmarshal validation. Each client's chunk
// queue holds 4 chunks; a client further ahead of the gather than that
// blocks in SendChunk, which is the pace StreamUpload runs at.
type ChunkPipe struct {
	chunks []chan []byte
	acks   []chan []byte
}

// NewChunkPipe builds a pipe for numClients clients.
func NewChunkPipe(numClients int) *ChunkPipe {
	p := &ChunkPipe{
		chunks: make([]chan []byte, numClients),
		acks:   make([]chan []byte, numClients),
	}
	for i := range p.chunks {
		p.chunks[i] = make(chan []byte, 4)
		p.acks[i] = make(chan []byte, 1) // one ack per upload
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

// SendChunkAck acknowledges a folded stream.
func (p *ChunkPipe) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= len(p.acks) {
		return fmt.Errorf("comm: chunk ack to unknown client %d", client)
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

// SendChunk uploads one chunk, blocking while the client's queue is full.
func (c *ChunkPipeClient) SendChunk(mc *wire.ModelChunk) error {
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
