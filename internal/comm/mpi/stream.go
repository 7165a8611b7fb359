package mpi

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Chunk streaming over the MPI world: chunks and acks travel as their
// wire-codec bytes packed into numeric buffers (packBytesWords), one
// header word carrying the byte count. Per-pair FIFO mailboxes give the
// per-client ordered demux comm.StreamGather needs for free.

// Message tags of the streaming path.
const (
	tagChunk    = -12 // client → server: packed ModelChunk
	tagChunkAck = -13 // server → client: packed ChunkAck
)

// packWireBytes prefixes codec bytes with their count and packs them.
func packWireBytes(b []byte) []float64 {
	buf := make([]float64, 1, 1+byteWords(len(b)))
	buf[0] = float64(len(b))
	return packBytesWords(buf, b)
}

// unpackWireBytes reverses packWireBytes.
func unpackWireBytes(buf []float64) ([]byte, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("mpi: chunk buffer too short (%d)", len(buf))
	}
	n := buf[0]
	if n < 0 || n != math.Trunc(n) || n >= 1<<48 {
		return nil, fmt.Errorf("mpi: chunk buffer header %v invalid", n)
	}
	return unpackBytesWords(buf[1:], int(n))
}

// SendChunk uploads one model chunk to the server rank.
func (t *ClientTransport) SendChunk(c *wire.ModelChunk) error {
	var e wire.Encoder
	buf := packWireBytes(e.Encode(c))
	t.c.Send(0, tagChunk, buf)
	t.stats.AddSent(8 * len(buf))
	return nil
}

// RecvChunkAck blocks for the next chunk ack; timeout <= 0 waits
// forever, otherwise comm.ErrAckTimeout is returned when it elapses.
func (t *ClientTransport) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	buf, ok := t.c.RecvTimeout(0, tagChunkAck, timeout)
	if !ok {
		return nil, comm.ErrAckTimeout
	}
	t.stats.AddRecv(8 * len(buf))
	b, err := unpackWireBytes(buf)
	if err != nil {
		return nil, err
	}
	var a wire.ChunkAck
	if err := a.Unmarshal(wire.NewDecoder(b)); err != nil {
		return nil, err
	}
	return &a, nil
}

// RecvChunkFrom blocks for the next chunk from one client. Chunks are
// routed here by the dispatch reply receiver, so a stream is only
// receivable while the client has an open obligation (the runner's flow:
// SendTo, stream, slim settling update).
func (s *ServerTransport) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	if client < 0 || client >= s.c.Size()-1 {
		return nil, fmt.Errorf("mpi: chunk receive from unknown client %d", client)
	}
	buf := <-s.chunks[client]
	s.stats.AddRecv(8 * len(buf))
	b, err := unpackWireBytes(buf)
	if err != nil {
		return nil, err
	}
	mc := comm.NewChunk()
	if err := mc.Unmarshal(wire.NewDecoder(b)); err != nil {
		return nil, err
	}
	return mc, nil
}

// SendChunkAck tells a client's rank that its stream is folded.
func (s *ServerTransport) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= s.c.Size()-1 {
		return fmt.Errorf("mpi: chunk ack to unknown client %d", client)
	}
	var e wire.Encoder
	buf := packWireBytes(e.Encode(a))
	s.c.Send(client+1, tagChunkAck, buf)
	s.stats.AddSent(8 * len(buf))
	return nil
}

// Interface conformance checks.
var (
	_ comm.ChunkSender   = (*ClientTransport)(nil)
	_ comm.ChunkGatherer = (*ServerTransport)(nil)
)
