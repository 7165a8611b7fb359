package rpc

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// Chunk streaming over TCP frames. Chunks ride the same connection as
// ordinary updates (the readLoop routes KindModelChunk frames into
// per-client channels); acks come back as KindChunkAck frames the client
// reads inline — safe because streaming is barrier-only, so the server
// sends nothing else while a stream is in flight.

// RecvChunkFrom blocks for the next streamed chunk from one client.
func (s *Server) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	if client < 0 || client >= s.cfg.NumClients {
		return nil, fmt.Errorf("rpc: chunk receive from unknown client %d", client)
	}
	var ca chunkArrival
	select {
	case ca = <-s.chunks[client]:
	case <-s.done:
		return nil, fmt.Errorf("rpc: server closed while awaiting chunk from client %d", client)
	}
	s.stats.AddRecv(ca.size)
	if ca.bad != nil {
		return nil, fmt.Errorf("rpc: chunk decode from client %d: %w", client, ca.bad)
	}
	return ca.chunk, nil
}

// SendChunkAck acknowledges one folded chunk back to its sender.
func (s *Server) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= s.cfg.NumClients {
		return fmt.Errorf("rpc: chunk ack to unknown client %d", client)
	}
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	if err := writeFrame(s.conn(client), wire.KindChunkAck, len(s.ackEnc.Encode(a)), s.ackEnc.Bytes()); err != nil {
		return fmt.Errorf("rpc: chunk ack to client %d: %w", client, err)
	}
	s.stats.AddSent(s.ackEnc.Len())
	return nil
}

// SendChunk uploads one model chunk.
func (c *Client) SendChunk(mc *wire.ModelChunk) error {
	return c.send(wire.KindModelChunk, mc)
}

// RecvChunkAck blocks for the next chunk ack; a positive timeout is
// enforced with a read deadline and surfaces comm.ErrAckTimeout, so a
// lost ack costs one retransmit instead of a hung upload.
func (c *Client) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	conn := c.current()
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	var a wire.ChunkAck
	kind, err := c.recv(conn, wire.KindChunkAck, &a)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, comm.ErrAckTimeout
		}
		return nil, err
	}
	if kind != wire.KindChunkAck {
		return nil, fmt.Errorf("rpc: expected ChunkAck, got %v", kind)
	}
	return &a, nil
}

// Interface conformance checks.
var (
	_ comm.ChunkSender   = (*Client)(nil)
	_ comm.ChunkGatherer = (*Server)(nil)
)
