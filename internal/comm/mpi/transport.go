package mpi

import (
	"fmt"
	"time"

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
// one tagUpdate reply per delivered model. Every dispatched non-final model
// registers a receiver goroutine for exactly one reply, which feeds a
// shared arrival channel; GatherFrom/GatherAny/GatherUntil drain it.

// Message tags of the FL protocol.
const (
	tagGlobal = -10 // server → client: GlobalModel frame
	tagUpdate = -11 // client → server: LocalUpdate frame
)

// arrival is one received update frame, tagged with its source rank.
type arrival struct {
	rank  int
	frame []byte
}

// ServerTransport adapts the server rank to comm.ServerTransport.
type ServerTransport struct {
	c        *Comm
	stats    comm.Stats
	arrivals chan arrival
	chunks   []chan []byte // per-client streamed chunk frames
	ledger   *comm.Ledger
}

// ClientTransport adapts a client rank to comm.ClientTransport.
type ClientTransport struct {
	c     *Comm
	stats comm.Stats
	model wire.GlobalModel // what RecvGlobal returns; recycled per call
}

// NewFLWorld builds a world for one server and numClients clients and
// returns the transports. Client i (0-based) runs on rank i+1.
func NewFLWorld(numClients int) (*ServerTransport, []*ClientTransport) {
	w := NewWorld(numClients + 1)
	server := &ServerTransport{
		c:        w.Rank(0),
		arrivals: make(chan arrival, numClients),
		chunks:   make([]chan []byte, numClients),
		ledger:   comm.NewLedger(numClients),
	}
	for i := range server.chunks {
		// Capacity 4, matching comm.ChunkPipe: with the client's mailbox
		// (8) and the one chunk the reply receiver holds, this is how far a
		// client streams ahead of the gather before its Send blocks.
		server.chunks[i] = make(chan []byte, 4)
	}
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		clients[i] = &ClientTransport{c: w.Rank(i + 1)}
	}
	return server, clients
}

// numClients is the number of client ranks.
func (s *ServerTransport) numClients() int { return s.c.Size() - 1 }

// dispatch sends the model frame to one client and, for non-final models,
// registers a receiver for the obligatory reply.
func (s *ServerTransport) dispatch(client int, frame []byte, round uint32, final bool) error {
	if client < 0 || client >= s.numClients() {
		return fmt.Errorf("mpi: send to unknown client %d", client)
	}
	if !final {
		if err := s.ledger.Open(client, round); err != nil {
			return fmt.Errorf("mpi: %w", err)
		}
	}
	s.c.Send(client+1, tagGlobal, frame)
	s.stats.AddSent(len(frame))
	if !final {
		// The reply receiver demultiplexes the client's uplink: streamed
		// chunks (which ride below the obligation) are routed to the chunk
		// queue until the tagUpdate settling the obligation arrives.
		go func() {
			for {
				tag, frame := s.c.recvAny(client + 1)
				switch tag {
				case tagChunk:
					s.chunks[client] <- frame
				case tagUpdate:
					s.arrivals <- arrival{rank: client, frame: frame}
					return
				default:
					panic(fmt.Sprintf("mpi: rank 0 expected tag %d or %d from %d, got %d",
						tagChunk, tagUpdate, client+1, tag))
				}
			}
		}()
	}
	return nil
}

// Broadcast delivers the global model to every client.
func (s *ServerTransport) Broadcast(m *wire.GlobalModel) error {
	return s.SendTo(comm.AllClients(s.numClients()), m)
}

// SendTo delivers the global model to the listed clients only.
func (s *ServerTransport) SendTo(clients []int, m *wire.GlobalModel) error {
	// Encoded once into a buffer of its own: every scheduled rank's
	// mailbox shares the frame and may hold it past this call.
	var e wire.Encoder
	frame := e.Encode(m)
	for _, c := range clients {
		if err := s.dispatch(c, frame, m.Round, m.Final); err != nil {
			return err
		}
	}
	return nil
}

// collect drains n arrivals in arrival order. A nil timer waits forever;
// otherwise the gather gives up when the timer fires and returns the
// partial batch with ErrRoundTimeout.
func (s *ServerTransport) collect(n int, timer <-chan time.Time) ([]*wire.LocalUpdate, error) {
	if owed := s.ledger.Owed(); n > owed {
		return nil, fmt.Errorf("mpi: gathering %d updates with only %d outstanding", n, owed)
	}
	out := make([]*wire.LocalUpdate, 0, n)
	for len(out) < n {
		var a arrival
		select {
		case a = <-s.arrivals:
		case <-timer:
			return out, fmt.Errorf("mpi: %d of %d updates after deadline: %w", len(out), n, comm.ErrRoundTimeout)
		}
		s.stats.AddRecv(len(a.frame))
		u := comm.NewUpdate()
		if err := u.Unmarshal(wire.NewDecoder(a.frame)); err != nil {
			return nil, fmt.Errorf("mpi: update decode from client %d: %w", a.rank, err)
		}
		if !s.ledger.Admit(a.rank, u.Round) {
			comm.ReleaseUpdate(u) // late update for a forgiven round: discard
			continue
		}
		out = append(out, u)
	}
	return out, nil
}

// GatherFrom collects one update from each listed client, ordered as
// listed.
func (s *ServerTransport) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	got, err := s.collect(len(clients), nil)
	if err != nil {
		return nil, err
	}
	return comm.OrderByClient(clients, got)
}

// GatherAny collects the next n outstanding updates in arrival order.
func (s *ServerTransport) GatherAny(n int) ([]*wire.LocalUpdate, error) {
	return s.collect(n, nil)
}

// GatherUntil collects up to n outstanding updates, giving up at the
// deadline; see comm.ServerTransport.
func (s *ServerTransport) GatherUntil(n int, timeout time.Duration) ([]*wire.LocalUpdate, error) {
	return comm.GatherWithDeadline(s.ledger, "mpi", n, timeout, s.collect)
}

// Forgive closes the open obligations of the listed clients; their late
// updates, if any ever arrive, are discarded.
func (s *ServerTransport) Forgive(clients []int) { s.ledger.Forgive(clients) }

// Outstanding returns the sorted clients with open update obligations.
func (s *ServerTransport) Outstanding() []int { return s.ledger.Outstanding() }

// Stats returns the server's traffic snapshot.
func (s *ServerTransport) Stats() comm.Snapshot { return s.stats.Snapshot() }

// Close is a no-op for the in-process world.
func (s *ServerTransport) Close() error { return nil }

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

// send encodes m into a frame of its own, which the server rank decodes
// after this call returns, and hands it over.
func (t *ClientTransport) send(tag int, m wire.Marshaler) {
	var e wire.Encoder
	frame := e.Encode(m)
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
