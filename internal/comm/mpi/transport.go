package mpi

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// The FL transport runs on a world of P+1 ranks: rank 0 is the server and
// ranks 1..P are clients. Structured messages travel as flat float64
// buffers with a small numeric header — a buffer copy, not a serialization
// pass, mirroring how MPI with RDMA moves model tensors directly.
//
// Cohort scheduling rules out world-wide collectives (a Bcast would block
// on ranks that are not scheduled this round), so the adapter uses tagged
// point-to-point sends: one tagGlobal message per scheduled client, one
// tagUpdate reply per delivered model. Every dispatched non-final model
// registers a receiver goroutine for exactly one reply, which feeds a
// shared arrival channel; Gather/GatherFrom/GatherAny drain it.

// Message tags of the FL protocol.
const (
	tagGlobal = -10 // server → client: packed GlobalModel
	tagUpdate = -11 // client → server: packed LocalUpdate
)

// arrival is one received update buffer, tagged with its source rank.
type arrival struct {
	rank int
	buf  []float64
}

// ServerTransport adapts the server rank to comm.ServerTransport.
type ServerTransport struct {
	c        *Comm
	stats    comm.Stats
	arrivals chan arrival
	chunks   []chan []float64 // per-client streamed chunk buffers
	ledger   *comm.Ledger
}

// ClientTransport adapts a client rank to comm.ClientTransport.
type ClientTransport struct {
	c     *Comm
	stats comm.Stats
}

// NewFLWorld builds a world for one server and numClients clients and
// returns the transports. Client i (0-based) runs on rank i+1.
func NewFLWorld(numClients int) (*ServerTransport, []*ClientTransport) {
	w := NewWorld(numClients + 1)
	server := &ServerTransport{
		c:        w.Rank(0),
		arrivals: make(chan arrival, numClients),
		chunks:   make([]chan []float64, numClients),
		ledger:   comm.NewLedger(numClients),
	}
	for i := range server.chunks {
		// Capacity 4 holds the window-1 steady state plus a retransmit
		// racing its late ack, matching comm.ChunkPipe.
		server.chunks[i] = make(chan []float64, 4)
	}
	clients := make([]*ClientTransport, numClients)
	for i := range clients {
		clients[i] = &ClientTransport{c: w.Rank(i + 1)}
	}
	return server, clients
}

// Compressed payloads (wire.Payload) ride the numeric buffers as their
// wire-codec bytes packed six per float64 word: 48-bit integers are
// exactly representable, so no word can land on a NaN/denormal bit
// pattern the FP path might alter. The 8/6 inflation still leaves top-k
// and quantized uploads far below the dense buffer size, so the MPI byte
// accounting tracks the compression honestly.

// packBytesWords appends b to buf as 48-bit little-endian words.
func packBytesWords(buf []float64, b []byte) []float64 {
	for i := 0; i < len(b); i += 6 {
		var w uint64
		for j := 0; j < 6 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * j)
		}
		buf = append(buf, float64(w))
	}
	return buf
}

// byteWords is the word count packBytesWords emits for n bytes.
func byteWords(n int) int { return (n + 5) / 6 }

// unpackBytesWords reverses packBytesWords for n original bytes.
func unpackBytesWords(words []float64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for _, f := range words {
		if f < 0 || f != math.Trunc(f) || f >= 1<<48 {
			return nil, fmt.Errorf("mpi: corrupt payload word %v", f)
		}
		w := uint64(f)
		for j := 0; j < 6 && len(out) < n; j++ {
			out = append(out, byte(w>>(8*j)))
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("mpi: payload words carry %d bytes, header says %d", len(out), n)
	}
	return out, nil
}

// marshalPayload renders a wire.Payload to its codec bytes (nil → empty).
func marshalPayload(p *wire.Payload) []byte {
	if p == nil {
		return nil
	}
	var e wire.Encoder
	return e.Encode(p)
}

// unmarshalPayload decodes and validates codec bytes back to a Payload.
func unmarshalPayload(b []byte) (*wire.Payload, error) {
	var p wire.Payload
	if err := p.Unmarshal(wire.NewDecoder(b)); err != nil {
		return nil, err
	}
	return &p, nil
}

// packGlobal flattens a GlobalModel into one buffer.
func packGlobal(m *wire.GlobalModel) []float64 {
	pb := marshalPayload(m.WeightsP)
	buf := make([]float64, 7+len(m.Weights), 7+len(m.Weights)+byteWords(len(pb)))
	buf[0] = float64(m.Round)
	if m.Final {
		buf[1] = 1
	}
	buf[2] = m.Rho
	buf[3] = float64(m.Version)
	buf[4] = float64(m.CohortSize)
	buf[5] = float64(len(m.Weights))
	buf[6] = float64(len(pb))
	copy(buf[7:], m.Weights)
	return packBytesWords(buf, pb)
}

func unpackGlobal(buf []float64) (*wire.GlobalModel, error) {
	if len(buf) < 7 {
		return nil, fmt.Errorf("mpi: global-model buffer too short (%d)", len(buf))
	}
	n, npb := int(buf[5]), int(buf[6])
	if n < 0 || npb < 0 {
		return nil, fmt.Errorf("mpi: global-model header counts negative (%d weights, %d payload bytes)", n, npb)
	}
	if len(buf) != 7+n+byteWords(npb) {
		return nil, fmt.Errorf("mpi: global-model buffer length %d, header says %d weights + %d payload bytes", len(buf), n, npb)
	}
	m := &wire.GlobalModel{
		Round:      uint32(buf[0]),
		Final:      buf[1] != 0,
		Rho:        buf[2],
		Version:    uint64(buf[3]),
		CohortSize: uint32(buf[4]),
		Weights:    buf[7 : 7+n],
	}
	if npb > 0 {
		pb, err := unpackBytesWords(buf[7+n:], npb)
		if err != nil {
			return nil, err
		}
		p, err := unmarshalPayload(pb)
		if err != nil {
			return nil, err
		}
		m.WeightsP = p
	}
	return m, nil
}

// packUpdate flattens a LocalUpdate into one buffer.
func packUpdate(m *wire.LocalUpdate) []float64 {
	pb := marshalPayload(m.PrimalP)
	buf := make([]float64, 12+len(m.Primal)+len(m.Dual), 12+len(m.Primal)+len(m.Dual)+byteWords(len(pb)))
	buf[0] = float64(m.ClientID)
	buf[1] = float64(m.Round)
	buf[2] = float64(m.NumSamples)
	buf[3] = m.Epsilon
	buf[4] = m.ComputeSec
	buf[5] = float64(m.BaseVersion)
	if m.InCohort {
		buf[6] = 1
	}
	buf[7] = float64(len(m.Primal))
	buf[8] = float64(len(m.Dual))
	buf[9] = float64(len(pb))
	buf[10] = float64(m.Control)
	buf[11] = float64(m.RejoinRound)
	copy(buf[12:], m.Primal)
	copy(buf[12+len(m.Primal):], m.Dual)
	return packBytesWords(buf, pb)
}

func unpackUpdate(buf []float64) (*wire.LocalUpdate, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("mpi: update buffer too short (%d)", len(buf))
	}
	np, nd, npb := int(buf[7]), int(buf[8]), int(buf[9])
	if np < 0 || nd < 0 || npb < 0 {
		return nil, fmt.Errorf("mpi: update header counts negative (%d primal, %d dual, %d payload bytes)", np, nd, npb)
	}
	if len(buf) != 12+np+nd+byteWords(npb) {
		return nil, fmt.Errorf("mpi: update buffer length %d, header says %d+%d payload + %d payload bytes", len(buf), np, nd, npb)
	}
	if c := buf[10]; c < 0 || c > 255 || c != math.Trunc(c) {
		return nil, fmt.Errorf("mpi: update carries invalid control %v", c)
	}
	if r := buf[11]; r < 0 || r >= 1<<32 || r != math.Trunc(r) {
		return nil, fmt.Errorf("mpi: update carries invalid rejoin round %v", r)
	}
	u := &wire.LocalUpdate{
		ClientID:    uint32(buf[0]),
		Round:       uint32(buf[1]),
		NumSamples:  uint64(buf[2]),
		Epsilon:     buf[3],
		ComputeSec:  buf[4],
		BaseVersion: uint64(buf[5]),
		InCohort:    buf[6] != 0,
		Control:     uint8(buf[10]),
		RejoinRound: uint32(buf[11]),
		Primal:      buf[12 : 12+np],
	}
	if nd > 0 {
		u.Dual = buf[12+np : 12+np+nd]
	}
	if npb > 0 {
		pb, err := unpackBytesWords(buf[12+np+nd:], npb)
		if err != nil {
			return nil, err
		}
		p, err := unmarshalPayload(pb)
		if err != nil {
			return nil, err
		}
		u.PrimalP = p
	}
	if math.IsNaN(u.Epsilon) {
		return nil, fmt.Errorf("mpi: update carries NaN epsilon")
	}
	return u, nil
}

// dispatch sends the packed model to one client and, for non-final models,
// registers a receiver for the obligatory reply.
func (s *ServerTransport) dispatch(client int, buf []float64, round uint32, final bool) error {
	if client < 0 || client >= s.c.Size()-1 {
		return fmt.Errorf("mpi: send to unknown client %d", client)
	}
	if !final {
		if err := s.ledger.Open(client, round); err != nil {
			return fmt.Errorf("mpi: %w", err)
		}
	}
	s.c.Send(client+1, tagGlobal, buf)
	s.stats.AddSent(8 * len(buf))
	if !final {
		// The reply receiver demultiplexes the client's uplink: streamed
		// chunks (which ride below the obligation) are routed to the chunk
		// queue until the tagUpdate settling the obligation arrives.
		go func() {
			for {
				tag, buf := s.c.recvAny(client + 1)
				switch tag {
				case tagChunk:
					s.chunks[client] <- buf
				case tagUpdate:
					s.arrivals <- arrival{rank: client, buf: buf}
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
	return s.SendTo(comm.AllClients(s.c.Size()-1), m)
}

// SendTo delivers the global model to the listed clients only.
func (s *ServerTransport) SendTo(clients []int, m *wire.GlobalModel) error {
	buf := packGlobal(m)
	for _, c := range clients {
		if err := s.dispatch(c, buf, m.Round, m.Final); err != nil {
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
		u, err := unpackUpdate(a.buf)
		if err != nil {
			return nil, err
		}
		s.stats.AddRecv(8 * len(a.buf))
		if !s.ledger.Admit(a.rank, u.Round) {
			continue // late update for a forgiven round: discard
		}
		out = append(out, u)
	}
	return out, nil
}

// Gather collects one update per client, ordered by client ID.
func (s *ServerTransport) Gather() ([]*wire.LocalUpdate, error) {
	return s.GatherFrom(comm.AllClients(s.c.Size() - 1))
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

// RecvGlobal blocks for the next global model addressed to this client.
func (t *ClientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	buf := t.c.Recv(0, tagGlobal)
	t.stats.AddRecv(8 * len(buf))
	return unpackGlobal(buf)
}

// SendUpdate uploads this client's update to the server rank.
func (t *ClientTransport) SendUpdate(m *wire.LocalUpdate) error {
	buf := packUpdate(m)
	t.c.Send(0, tagUpdate, buf)
	t.stats.AddSent(8 * len(buf))
	return nil
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
