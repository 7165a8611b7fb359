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

// RecvChunkFrom blocks for the next streamed chunk from one client — in
// windowed mode, the next window cut from its upload's primal, or nil for
// an upload that carries none. A connection failure fails the receive,
// unless the client has resumed on a new connection since: that is the
// old connection's teardown.
func (s *Server) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	if client < 0 || client >= s.cfg.NumClients {
		return nil, fmt.Errorf("rpc: chunk receive from unknown client %d", client)
	}
	for {
		var ca chunkArrival
		select {
		case ca = <-s.chunks[client]:
		case <-s.done:
			return nil, fmt.Errorf("rpc: server closed while awaiting chunk from client %d", client)
		}
		if ca.err != nil {
			s.mu.Lock()
			stale := ca.gen != s.gens[client]
			s.mu.Unlock()
			if stale {
				continue
			}
			return nil, ca.err
		}
		s.stats.AddRecv(ca.size)
		if ca.bad != nil {
			return nil, fmt.Errorf("rpc: chunk decode from client %d: %w", client, ca.bad)
		}
		return ca.chunk, nil
	}
}

// WindowUploads switches windowed mode (comm.UploadWindower): while window
// is positive, every connection's reader cuts each LocalUpdate's dense
// primal into ModelChunks of window coordinates as it reads the frame, and
// the gathers receive the update without it. A client in a windowed
// round waits for no ack, so the caller of StreamGather sends none. A
// multi-tenant server, or one that negotiated no model size, cannot cut
// windows and reports false.
func (s *Server) WindowUploads(window int) bool {
	if len(s.specs) != 1 || s.specs[0].ModelSize <= 0 {
		return false
	}
	s.window.Store(int64(max(window, 0)))
	return true
}

// SendChunkAck tells a client that its stream is folded.
func (s *Server) SendChunkAck(client int, a *wire.ChunkAck) error {
	if client < 0 || client >= s.cfg.NumClients {
		return fmt.Errorf("rpc: chunk ack to unknown client %d", client)
	}
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	if err := s.ackFrame.write(s.conn(client), wire.KindChunkAck, len(s.ackEnc.Encode(a)), s.ackEnc.Bytes()); err != nil {
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
	_ comm.ChunkGatherer  = (*Server)(nil)
	_ comm.UploadWindower = (*Server)(nil)
)
