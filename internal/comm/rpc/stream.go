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
// ordinary updates (the inbox queues KindModelChunk frames on its chunk
// side); acks come back as KindChunkAck frames the client reads inline —
// safe because streaming is barrier-only, so the server sends nothing
// else while a stream is in flight.

// SendChunkAck tells a client of this tenant that its stream is folded.
func (v *TenantView) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= v.n {
		return fmt.Errorf("rpc: chunk ack to unknown client %d", client)
	}
	s := v.s
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	if err := s.ackFrame.write(s.conn(v.off+client), wire.KindChunkAck, len(s.ackEnc.Encode(a)), s.ackEnc.Bytes()); err != nil {
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
// enforced with a read deadline and surfaces comm.ErrAckTimeout. The ack
// is decoded into storage the client keeps, and is valid until the next
// RecvChunkAck.
func (c *Client) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	conn := c.current()
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	kind, err := c.recv(conn, wire.KindChunkAck, &c.chunkAck)
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
	return &c.chunkAck, nil
}

// Interface conformance checks.
var (
	_ comm.ChunkSender    = (*Client)(nil)
	_ comm.UploadWindower = (*Server)(nil)
	_ comm.UploadWindower = (*TenantView)(nil)
)
