package mpi

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Chunk streaming over the MPI world: chunks and acks travel as wire
// frames under their own tags. Per-pair FIFO mailboxes give the
// per-client ordered demux comm.StreamGather needs for free.

// Message tags of the streaming path.
const (
	tagChunk    = -12 // client → server: ModelChunk frame
	tagChunkAck = -13 // server → client: ChunkAck frame
)

// SendChunk uploads one model chunk to the server rank.
func (t *ClientTransport) SendChunk(c *wire.ModelChunk) error {
	t.send(tagChunk, c)
	return nil
}

// RecvChunkAck blocks for the next chunk ack; timeout <= 0 waits
// forever, otherwise comm.ErrAckTimeout is returned when it elapses.
func (t *ClientTransport) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	frame, ok := t.c.RecvTimeout(0, tagChunkAck, timeout)
	if !ok {
		return nil, comm.ErrAckTimeout
	}
	t.stats.AddRecv(len(frame))
	var a wire.ChunkAck
	if err := a.Unmarshal(wire.NewDecoder(frame)); err != nil {
		return nil, err
	}
	return &a, nil
}

// SendChunkAck tells a client's rank that its stream is folded.
func (s *ServerTransport) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= s.numClients() {
		return fmt.Errorf("mpi: chunk ack to unknown client %d", client)
	}
	var e wire.Encoder
	frame := e.Encode(a)
	s.c.Send(client+1, tagChunkAck, frame)
	s.stats.AddSent(len(frame))
	return nil
}

// Interface conformance checks.
var (
	_ comm.ChunkSender   = (*ClientTransport)(nil)
	_ comm.ChunkGatherer = (*ServerTransport)(nil)
)
