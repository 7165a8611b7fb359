package mpi

import (
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
// rank hands everything that rank sends the server to the server's
// comm.Inbox, which decodes it and which the gathers drain.

// Message tags of the FL protocol: each is the wire.Kind of the frame it
// carries.
const (
	tagGlobal = int(wire.KindGlobalModel) // server → client
	tagUpdate = int(wire.KindLocalUpdate) // client → server
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

// receive is client's reply receiver. It hands every frame the client's
// rank sends the server — streamed chunks, updates — to the inbox, which
// decodes it and returns the frame to the pool the client took it from
// (comm.EncodeFrame). The rank is the sender, so the inbox holds each
// update's ClientID to it. It runs until Close.
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
		dec.Reset(m.data)
		if !s.Receive(&dec, wire.Kind(m.tag), client, 0, len(m.data), m.data) {
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
	// Encoded once into a pooled frame: every scheduled rank's mailbox
	// shares it, and the last rank to decode it returns it to the pool.
	f := comm.EncodeShared(m, len(clients))
	if err := s.Open(clients, m); err != nil {
		return err
	}
	frame := f.Bytes
	for _, c := range clients {
		s.c.send(c+1, message{tag: tagGlobal, data: frame, shared: f})
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
// decoded dense (wire.GlobalModel.UnmarshalDense) into storage the
// transport keeps: it is valid until the next RecvGlobal. The shared frame
// is released once decoded.
func (t *ClientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	m, _ := t.c.recv(0, tagGlobal, 0)
	t.stats.AddRecv(len(m.data))
	err := t.model.UnmarshalDense(wire.NewDecoder(m.data))
	m.shared.Release()
	if err != nil {
		return nil, err
	}
	return &t.model, nil
}

// ReceiveInto lends w to the kept model: every later broadcast, dense or
// float16, is decoded into it.
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
