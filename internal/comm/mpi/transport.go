package mpi

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/wire"
)

// The FL transport runs on a world of P+1 ranks: rank 0 is the server and
// ranks 1..P are clients. Every message is the wire.Encoder frame rpc and
// pubsub send, so all three transports count the same bytes; the mailbox
// hands the frame over by reference where rpc writes it to a socket.
//
// Cohort scheduling rules out world-wide collectives (a broadcast would
// block on ranks that are not scheduled this round), so the adapter uses
// tagged point-to-point sends: one tagGlobal message per scheduled client,
// one tagUpdate reply per delivered model. One reply receiver per client
// rank decodes everything that rank sends the server and feeds the
// server's comm.Inbox, which the gathers drain.

// Message tags of the FL protocol.
const (
	tagGlobal = -10 // server → client: GlobalModel frame
	tagUpdate = -11 // client → server: LocalUpdate frame
)

// ServerTransport adapts the server rank to comm.ServerTransport. Its
// gathers, Forgive, Outstanding and RecvChunkFrom are the embedded inbox's.
type ServerTransport struct {
	*comm.Inbox
	c     *Comm
	stats comm.Stats
	done  chan struct{}
	once  sync.Once
}

// ClientTransport adapts a client rank to comm.ClientTransport.
type ClientTransport struct {
	c     *Comm
	stats comm.Stats
	enc   wire.Encoder     // the frame being encoded, only while send runs
	model wire.GlobalModel // what RecvGlobal returns; recycled per call
}

// NewFLWorld builds a world for one server and numClients clients and
// returns the transports. Client i (0-based) runs on rank i+1.
func NewFLWorld(numClients int) (*ServerTransport, []*ClientTransport) {
	w := NewWorld(numClients + 1)
	server := &ServerTransport{c: w.Rank(0), done: make(chan struct{})}
	server.Inbox = comm.NewInbox(comm.InboxConfig{
		Name: "mpi", Clients: numClients, Stats: &server.stats, Done: server.done,
	})
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		clients[i] = &ClientTransport{c: w.Rank(i + 1)}
		go server.receive(i)
	}
	return server, clients
}

// numClients is the number of client ranks.
func (s *ServerTransport) numClients() int { return s.c.Size() - 1 }

// receive is client's reply receiver. It decodes every frame the client's
// rank sends the server — streamed chunks for the stream gather, updates
// for the gathers — and feeds it to the inbox, which returns the frame to
// the pool the client took it from (comm.EncodeFrame). The rank's sender
// is known, so the inbox holds each update's ClientID to it. It runs until
// Close.
func (s *ServerTransport) receive(client int) {
	from := s.c.mailbox(client + 1)
	var dec wire.Decoder
	for {
		var m message
		select {
		case m = <-from:
		case <-s.done:
			return
		}
		if m.tag != tagChunk && m.tag != tagUpdate {
			panic(fmt.Sprintf("mpi: rank 0 expected tag %d or %d from %d, got %d",
				tagChunk, tagUpdate, client+1, m.tag))
		}
		if !s.PostFrame(&dec, client, m.tag == tagChunk, m.data) {
			return
		}
	}
}

// Broadcast delivers the global model to every client.
func (s *ServerTransport) Broadcast(m *wire.GlobalModel) error {
	return s.SendTo(comm.AllClients(s.numClients()), m)
}

// SendTo delivers the global model to the listed clients only. Each
// non-final model opens an obligation for the client's reply.
func (s *ServerTransport) SendTo(clients []int, m *wire.GlobalModel) error {
	// Encoded once into a buffer of its own: every scheduled rank's
	// mailbox shares the frame and may hold it past this call, so it is
	// the one allocation a dispatch makes.
	var e wire.Encoder
	frame := e.Encode(m)
	if err := s.Open(clients, m); err != nil {
		return err
	}
	for _, c := range clients {
		s.c.Send(c+1, tagGlobal, frame)
		s.stats.AddSent(len(frame))
	}
	return nil
}

// Stats returns the server's traffic snapshot.
func (s *ServerTransport) Stats() comm.Snapshot { return s.stats.Snapshot() }

// Close stops the reply receivers; gathers waiting on them fail.
func (s *ServerTransport) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

// RecvGlobal blocks for the next global model addressed to this client,
// decoded into storage the transport keeps: it is valid until the next
// RecvGlobal.
func (t *ClientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	frame := t.c.Recv(0, tagGlobal)
	t.stats.AddRecv(len(frame))
	if err := t.model.Unmarshal(wire.NewDecoder(frame)); err != nil {
		return nil, err
	}
	return &t.model, nil
}

// ReceiveInto lends w to the kept model: every later dense broadcast is
// decoded into it.
func (t *ClientTransport) ReceiveInto(w []float64) { t.model.Weights = w[:0] }

// SendUpdate uploads this client's update to the server rank.
func (t *ClientTransport) SendUpdate(m *wire.LocalUpdate) error {
	t.send(tagUpdate, m)
	return nil
}

// send encodes m into a pooled frame (comm.EncodeFrame), which the server
// returns to the pool once it has decoded it, and hands it over.
func (t *ClientTransport) send(tag int, m wire.Marshaler) {
	frame := comm.EncodeFrame(&t.enc, m)
	t.c.Send(0, tag, frame)
	t.stats.AddSent(len(frame))
}

// Stats returns the client's traffic snapshot.
func (t *ClientTransport) Stats() comm.Snapshot { return t.stats.Snapshot() }

// Close is a no-op for the in-process world.
func (t *ClientTransport) Close() error { return nil }

// Interface conformance checks.
var (
	_ comm.ServerTransport = (*ServerTransport)(nil)
	_ comm.ClientTransport = (*ClientTransport)(nil)
)
