package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is the ID of the span that
// caused it (-1 for a round, which nothing in the program causes) and
// Round is the identifier every span of one federated round shares.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Round  int           `json:"round"`
	Client int           `json:"client"` // -1 on the server side
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names. The decorators below are the only producers.
const (
	spanRound      = "round"             // SendTo call → next SendTo call (or the final broadcast)
	spanSendTo     = "server.SendTo"     // comm/rpc downlink: marshal + socket writes
	spanGatherFrom = "server.GatherFrom" // server blocked on the cohort's uploads
	spanRecvChunk  = "server.RecvChunkFrom"
	spanSendAck    = "server.SendChunkAck"
	spanFold       = "server.fold"       // Gate acquire → release: invert + journal admit + fold
	spanTail       = "server.tail"       // Gate release → next SendTo: commit, eval, next model copy
	spanRecvGlobal = "client.RecvGlobal" // client blocked on (and decoding) the downlink
	spanCompute    = "client.compute"    // RecvGlobal return → first upload call
	spanSendUpdate = "client.SendUpdate" // comm/rpc uplink: marshal + socket write
	spanSendChunk  = "client.SendChunk"  // one streamed chunk upload
	spanRecvAck    = "client.RecvChunkAck"
)

// tracer keeps every span of a run in memory; nothing is written until the
// run is over. It is safe for use by the server and all client goroutines.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	roundSpan map[int]int // round id → ID of its open or closed round span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roundSpan: make(map[int]int)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span under the round's root span.
func (t *tracer) add(name string, round, client int, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.roundSpan[round]
	if !ok {
		parent = -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Round: round, Client: client, Start: start, End: end})
}

// openRound starts the root span of a round at start; closeRound ends it.
func (t *tracer) openRound(round int, start time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Name: spanRound, Round: round, Client: -1, Start: start, End: start})
	t.roundSpan[round] = id
}

func (t *tracer) closeRound(round int, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.roundSpan[round]; ok {
		t.spans[id].End = end
	}
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	fillSelfTimes(t.spans)
	return t.spans
}

// fillSelfTimes sets each span's Self to its duration minus the part of
// its interval that its child spans cover (children may overlap each other
// and may stick out of the parent; both are clipped).
func fillSelfTimes(spans []span) {
	type iv struct{ lo, hi time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		p := &spans[i]
		ivs := children[p.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		edge := p.Start // everything before edge is already counted
		for _, c := range ivs {
			lo, hi := c.lo, c.hi
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.dur() - covered
	}
}

// capture holds one round's real messages as wire bytes, taken by the
// server decorator in the run's last round (which the per-layer statistics
// leave out, because the copies are made inside it). The standalone layer
// probes decode fresh messages from these bytes for every repetition.
type capture struct {
	round   int
	global  []byte   // the GlobalModel handed to SendTo
	updates [][]byte // the LocalUpdates GatherFrom returned, still encoded as the clients sent them
	// chunks[c][i] is client i's payload of chunk c (streamed rounds only).
	chunks  [][][]byte
	samples []uint64
}

func marshalCopy(m interface{ Marshal(*wire.Encoder) }) []byte {
	e := wire.NewEncoder(nil)
	m.Marshal(e)
	return e.Bytes()
}

// tracedServer decorates a comm.ServerTransport with spans around every
// call the barrier round loop makes, and forwards the optional transport
// interfaces (chunk gather, unreachable set) the way the inner transport
// answers them. Methods it does not time pass through the embedded value.
type tracedServer struct {
	comm.ServerTransport
	tr  *tracer
	cap *capture // nil when nothing is to be captured

	// The round loop is one goroutine, so the fields below need no lock.
	round       int           // round of the last SendTo
	tailStart   time.Duration // when the last fold released its gate
	retransmits int
	lastChunk   map[int]int // client → highest chunk index seen this round
}

func newTracedServer(inner comm.ServerTransport, tr *tracer, cap *capture) *tracedServer {
	return &tracedServer{ServerTransport: inner, tr: tr, cap: cap, lastChunk: make(map[int]int)}
}

// endRound closes the previous round: its tail span runs from the gate
// release to now, and its root span ends here.
func (s *tracedServer) endRound(now time.Duration) {
	if s.round == 0 {
		return
	}
	if s.tailStart > 0 {
		s.tr.add(spanTail, s.round, -1, s.tailStart, now)
		s.tailStart = 0
	}
	s.tr.closeRound(s.round, now)
}

func (s *tracedServer) SendTo(clients []int, m *wire.GlobalModel) error {
	start := s.tr.now()
	s.endRound(start)
	s.round = int(m.Round)
	s.tr.openRound(s.round, start)
	clear(s.lastChunk)
	if s.cap != nil && s.round == s.cap.round {
		s.cap.global = marshalCopy(m)
	}
	err := s.ServerTransport.SendTo(clients, m)
	s.tr.add(spanSendTo, s.round, -1, start, s.tr.now())
	return err
}

// Broadcast is only used for the final (shutdown) model; it ends the last round.
func (s *tracedServer) Broadcast(m *wire.GlobalModel) error {
	if m.Final {
		s.endRound(s.tr.now())
		s.round = 0
	}
	return s.ServerTransport.Broadcast(m)
}

func (s *tracedServer) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	start := s.tr.now()
	ups, err := s.ServerTransport.GatherFrom(clients)
	s.tr.add(spanGatherFrom, s.round, -1, start, s.tr.now())
	if err == nil && s.cap != nil && s.round == s.cap.round {
		for _, u := range ups {
			s.cap.updates = append(s.cap.updates, marshalCopy(u))
		}
	}
	return ups, err
}

func (s *tracedServer) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	g, ok := s.ServerTransport.(comm.ChunkGatherer)
	if !ok {
		return nil, fmt.Errorf("flround: transport %T cannot gather streamed chunks", s.ServerTransport)
	}
	start := s.tr.now()
	mc, err := g.RecvChunkFrom(client)
	s.tr.add(spanRecvChunk, s.round, client, start, s.tr.now())
	if err != nil {
		return mc, err
	}
	if last, seen := s.lastChunk[client]; seen && int(mc.Index) <= last {
		s.retransmits++
	} else {
		s.lastChunk[client] = int(mc.Index)
	}
	if s.cap != nil && s.round == s.cap.round && mc.Payload != nil {
		for len(s.cap.chunks) <= int(mc.Index) {
			s.cap.chunks = append(s.cap.chunks, nil)
		}
		s.cap.chunks[mc.Index] = append(s.cap.chunks[mc.Index], marshalCopy(mc.Payload))
		if mc.Index == 0 {
			s.cap.samples = append(s.cap.samples, mc.NumSamples)
		}
	}
	return mc, nil
}

func (s *tracedServer) SendChunkAck(client int, a *wire.ChunkAck) error {
	g, ok := s.ServerTransport.(comm.ChunkGatherer)
	if !ok {
		return fmt.Errorf("flround: transport %T cannot gather streamed chunks", s.ServerTransport)
	}
	start := s.tr.now()
	err := g.SendChunkAck(client, a)
	s.tr.add(spanSendAck, s.round, client, start, s.tr.now())
	return err
}

// Unreachable forwards comm.Unreachables; a transport without connection
// state knows of no unreachable client.
func (s *tracedServer) Unreachable() []int {
	if u, ok := s.ServerTransport.(comm.Unreachables); ok {
		return u.Unreachable()
	}
	return nil
}

// Acquire makes tracedServer the run's timing-only core.AdmissionGate: it
// never blocks, and acquire → release is the decode → fold span.
func (s *tracedServer) Acquire(cost int) (release func()) {
	start := s.tr.now()
	return func() {
		end := s.tr.now()
		s.tr.add(spanFold, s.round, -1, start, end)
		s.tailStart = end
	}
}

// tracedClient decorates one client's comm.ClientTransport. A client
// transport is used by its own goroutine only, so the fields need no lock.
type tracedClient struct {
	comm.ClientTransport
	tr *tracer
	id int

	round        int
	computeStart time.Duration // 0 once the round's compute span is closed
}

func newTracedClient(inner comm.ClientTransport, tr *tracer, id int) *tracedClient {
	return &tracedClient{ClientTransport: inner, tr: tr, id: id}
}

func (c *tracedClient) RecvGlobal() (*wire.GlobalModel, error) {
	start := c.tr.now()
	m, err := c.ClientTransport.RecvGlobal()
	end := c.tr.now()
	if err == nil && !m.Final {
		c.round = int(m.Round)
		c.tr.add(spanRecvGlobal, c.round, c.id, start, end)
		c.computeStart = end
	}
	return m, err
}

// endCompute closes the compute span at the round's first upload call.
func (c *tracedClient) endCompute(now time.Duration) {
	if c.computeStart > 0 {
		c.tr.add(spanCompute, c.round, c.id, c.computeStart, now)
		c.computeStart = 0
	}
}

func (c *tracedClient) SendUpdate(m *wire.LocalUpdate) error {
	start := c.tr.now()
	c.endCompute(start)
	err := c.ClientTransport.SendUpdate(m)
	c.tr.add(spanSendUpdate, c.round, c.id, start, c.tr.now())
	return err
}

func (c *tracedClient) SendChunk(mc *wire.ModelChunk) error {
	cs, ok := c.ClientTransport.(comm.ChunkSender)
	if !ok {
		return fmt.Errorf("flround: transport %T cannot stream chunked uploads", c.ClientTransport)
	}
	start := c.tr.now()
	c.endCompute(start)
	err := cs.SendChunk(mc)
	c.tr.add(spanSendChunk, c.round, c.id, start, c.tr.now())
	return err
}

func (c *tracedClient) RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error) {
	cs, ok := c.ClientTransport.(comm.ChunkSender)
	if !ok {
		return nil, fmt.Errorf("flround: transport %T cannot stream chunked uploads", c.ClientTransport)
	}
	start := c.tr.now()
	a, err := cs.RecvChunkAck(timeout)
	c.tr.add(spanRecvAck, c.round, c.id, start, c.tr.now())
	return a, err
}

// Resume forwards comm.SessionResumer.
func (c *tracedClient) Resume() error {
	if r, ok := c.ClientTransport.(comm.SessionResumer); ok {
		return r.Resume()
	}
	return fmt.Errorf("flround: transport %T cannot resume a session", c.ClientTransport)
}

// Interface conformance: the decorators answer every optional interface.
var (
	_ comm.ServerTransport = (*tracedServer)(nil)
	_ comm.ChunkGatherer   = (*tracedServer)(nil)
	_ comm.Unreachables    = (*tracedServer)(nil)
	_ comm.ClientTransport = (*tracedClient)(nil)
	_ comm.ChunkSender     = (*tracedClient)(nil)
	_ comm.SessionResumer  = (*tracedClient)(nil)
)

// roundLayers reduces one round's spans to the per-layer times of the
// README's table. Every value is in seconds except the chunk count.
type roundLayers struct {
	clientCompute float64 // max over clients of RecvGlobal return → first upload call
	rpcSend       float64 // the SendTo span
	rpcUplink     float64 // last client's first upload call → GatherFrom return
	gather        float64 // SendTo return → GatherFrom return
	foldGate      float64
	serverTail    float64
	criticalPath  float64 // SendTo call → GatherFrom return, + fold + tail
	chunks        int
}

// analyzeRounds groups spans by round and returns the layer times of every
// round in want (rounds that lack a span they need are skipped).
func analyzeRounds(spans []span, want func(round int) bool) map[int]roundLayers {
	type acc struct {
		sendStart, sendEnd, gatherEnd  time.Duration
		lastUpload                     time.Duration
		compute, fold, tail            time.Duration
		chunks                         int
		haveSend, haveGather, haveFold bool
	}
	rounds := make(map[int]*acc)
	for _, s := range spans {
		if !want(s.Round) {
			continue
		}
		a := rounds[s.Round]
		if a == nil {
			a = &acc{}
			rounds[s.Round] = a
		}
		switch s.Name {
		case spanSendTo:
			a.sendStart, a.sendEnd, a.haveSend = s.Start, s.End, true
		case spanGatherFrom:
			a.gatherEnd, a.haveGather = s.End, true
		case spanCompute:
			if d := s.dur(); d > a.compute {
				a.compute = d
			}
			// A compute span ends at the client's first upload call.
			if s.End > a.lastUpload {
				a.lastUpload = s.End
			}
		case spanFold:
			a.fold, a.haveFold = s.dur(), true
		case spanTail:
			a.tail = s.dur()
		case spanRecvChunk:
			a.chunks++
		}
	}
	out := make(map[int]roundLayers, len(rounds))
	for r, a := range rounds {
		if !a.haveSend || !a.haveGather || !a.haveFold {
			continue
		}
		out[r] = roundLayers{
			clientCompute: a.compute.Seconds(),
			rpcSend:       (a.sendEnd - a.sendStart).Seconds(),
			rpcUplink:     (a.gatherEnd - a.lastUpload).Seconds(),
			gather:        (a.gatherEnd - a.sendEnd).Seconds(),
			foldGate:      a.fold.Seconds(),
			serverTail:    a.tail.Seconds(),
			criticalPath:  (a.gatherEnd - a.sendStart + a.fold + a.tail).Seconds(),
			chunks:        a.chunks,
		}
	}
	return out
}

// selfByName sums self time per span name over the rounds in want.
func selfByName(spans []span, want func(round int) bool) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		if want(s.Round) {
			out[s.Name] += s.Self.Seconds()
		}
	}
	return out
}
