// Package rpc implements the gRPC-substitute transport: length-prefixed
// remote procedure calls over real TCP connections, with payloads encoded
// by the protobuf-style codec in internal/wire. It reproduces the two costs
// the paper identifies for gRPC versus RDMA-enabled MPI (Section IV-D):
// every model crossing the network is serialized and deserialized, and data
// is staged through the host network stack instead of moving directly
// between devices.
//
// Frame layout: 1 byte message kind, 4 bytes big-endian payload length,
// payload bytes.
//
// Sessions survive connection loss: a client may close its socket and
// redial with a Resume join, and the server splices the new connection
// into the same session (same client ID, same obligation ledger) — the
// reconnect path a cross-device deployment needs when devices drop off
// the network mid-run.
//
// One listening server can host many tenants (ServerConfig.Tenants): each
// Join carries a wire.TenantID validated against the tenant table, every
// incoming frame demuxes to its tenant's comm.Inbox (arrival queue and
// obligation ledger), and Tenant(t) returns a per-tenant
// comm.ServerTransport view.
// Tenant isolation is structural — a tenant's gathers, deadlines, and
// forgiveness never observe another tenant's traffic.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// maxFrame bounds a frame payload when no model size was negotiated.
const maxFrame = 1 << 30

// maxJoinFrame bounds the frames of the Join handshake, the only ones read
// before a peer has identified itself: a Join is a few integers and a
// name, a JoinAck three integers and the federation's plan.
const maxJoinFrame = 4 << 10

// salvageWait is how long a resuming client looks at its old connection
// for a dispatch that was already on its way.
const salvageWait = 10 * time.Millisecond

// joinTimeout bounds one Join handshake, so a peer that connects and then
// says nothing cannot hold the accept loop past it.
const joinTimeout = 5 * time.Second

// ErrFrameTooLarge is returned when a frame header announces a payload
// beyond what the connection may carry.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frameLimit bounds the frames of a joined connection by the negotiated
// model size: the largest legitimate message is an update carrying a
// dense primal and a dense dual (sparse and subset payloads spend 12
// bytes a coordinate, a global model 8), plus headers. A server that
// negotiated no model size keeps the loose maxFrame.
func frameLimit(modelSize int) int {
	if modelSize <= 0 || modelSize > (maxFrame-maxJoinFrame)/16 {
		return maxFrame
	}
	return 16*modelSize + maxJoinFrame
}

// frameWriter is one write side's frame scratch: the header bytes and the
// vectored-write list, kept so a frame costs no allocation. It belongs to
// one writer at a time — whichever goroutine owns that connection's write
// side.
type frameWriter struct {
	hdr  [5]byte
	list net.Buffers // header, then the payload slices
	bufs net.Buffers // the view of list that WriteTo consumes
}

// write sends one framed message — header and payload, which may come in
// several slices (wire.Encoder.EncodeVectored) — in a single vectored
// write. The slices themselves are left as they are, so the same payload
// can go to several connections.
func (f *frameWriter) write(w io.Writer, kind wire.Kind, size int, payload ...[]byte) error {
	if size > maxFrame {
		return ErrFrameTooLarge
	}
	f.hdr[0] = byte(kind)
	binary.BigEndian.PutUint32(f.hdr[1:], uint32(size))
	f.list = append(append(f.list[:0], f.hdr[:]), payload...)
	f.bufs = f.list
	_, err := f.bufs.WriteTo(w)
	clear(f.list) // hold no payload past the write
	return err
}

// writeFrame is frameWriter.write with scratch of its own, for the
// handshake frames written once per connection.
func writeFrame(w io.Writer, kind wire.Kind, size int, payload ...[]byte) error {
	var f frameWriter
	return f.write(w, kind, size, payload...)
}

// frameHeader is the scratch a connection's reader keeps for the 5 header
// bytes of each frame.
type frameHeader [5]byte

// read receives the next frame's header and returns its kind and payload
// size, which may not exceed limit bytes. The header is checked before
// anything is allocated or read on its word, so a hostile length costs
// its sender an error and the receiver nothing. The payload is then
// decoded straight off the connection (wire.Decoder.ResetStream): there
// is no frame buffer.
func (h *frameHeader) read(r io.Reader, limit int) (wire.Kind, int, error) {
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, 0, err
	}
	n := int(binary.BigEndian.Uint32(h[1:]))
	if n > limit {
		return 0, 0, fmt.Errorf("%w: header announces %d bytes, this connection may carry %d", ErrFrameTooLarge, n, limit)
	}
	return wire.Kind(h[0]), n, nil
}

// recvMessage decodes one n-byte frame payload off r into m. A transport
// failure is returned as such; a payload that arrived whole but is
// malformed is skipped, so the connection stays in step, and reported
// through bad.
func recvMessage(d *wire.Decoder, r io.Reader, n int, m interface{ Unmarshal(*wire.Decoder) error }) (bad, err error) {
	d.ResetStream(r, n)
	if bad = m.Unmarshal(d); bad == nil {
		return nil, nil
	}
	if err := d.ReadErr(); err != nil {
		return nil, err
	}
	return bad, d.Drain()
}

// TenantSpec is one tenant's slice of a multi-tenant server: its roster
// size and the run configuration its JoinAck advertises. Plan is the
// federation's shared experiment plan, handed to every joining client
// (zero = none: the ack is then the pre-plan encoding).
type TenantSpec struct {
	NumClients int
	Rounds     int
	ModelSize  int
	Plan       wire.Plan
}

// ServerConfig parameterizes a listening FL server.
type ServerConfig struct {
	NumClients int
	Rounds     int
	ModelSize  int
	Plan       wire.Plan
	// Tenants, when non-empty, makes the server multi-tenant: tenant t
	// serves Tenants[t].NumClients clients whose Joins must carry
	// TenantID t (zero routes to tenant 0, so pre-tenancy clients land in
	// the default tenant). The top-level NumClients/Rounds/ModelSize/Plan
	// are ignored in favor of the per-tenant specs. Empty means one default
	// tenant described by the top-level fields.
	Tenants []TenantSpec
	// AcceptTimeout bounds the wait for all clients to join (0 = 30 s).
	AcceptTimeout time.Duration
	// ResumeWait bounds how long a dispatch that hit a dying connection
	// waits for the client's Resume splice before surfacing the write
	// error (0 = 1 s).
	ResumeWait time.Duration
}

// tenants returns the effective tenant list (the legacy single-tenant
// fields synthesized into a one-entry list when Tenants is empty).
func (c ServerConfig) tenants() []TenantSpec {
	if len(c.Tenants) > 0 {
		return c.Tenants
	}
	return []TenantSpec{{NumClients: c.NumClients, Rounds: c.Rounds, ModelSize: c.ModelSize, Plan: c.Plan}}
}

// Server is the comm.ServerTransport over TCP. It accepts one connection
// per client slot, each beginning with a Join handshake, then keeps the
// listener open for Resume joins that splice a reconnecting client back
// into its session.
//
// One reader goroutine per connection decodes every incoming frame and
// feeds it to its tenant's comm.Inbox, whose gathers and chunk receive
// apply the receive rules. A single-tenant server is the degenerate
// one-view case: the
// Server embeds the default tenant's view, whose transport methods it
// serves, and keeps only Stats (every tenant's traffic) and Close.
type Server struct {
	*TenantView // tenant 0

	cfg   ServerConfig
	specs []TenantSpec
	table *comm.TenantTable
	total int // global client slots across all tenants
	ln    net.Listener
	stats comm.Stats

	views []*TenantView
	done  chan struct{}
	// window, when positive, is the width the readers cut every dense
	// upload's primal into (WindowUploads).
	window atomic.Int64

	ackMu    sync.Mutex
	ackEnc   wire.Encoder // chunk acks; under ackMu
	ackFrame frameWriter  // under ackMu

	mu       sync.Mutex
	conns    []net.Conn    // indexed by global slot, swapped on resume
	gens     []int         // connection generation per slot
	deadGen  []int         // generation whose connection died (-1 = alive)
	resumeCh chan struct{} // closed (and replaced) on every resume splice
	closed   bool
}

// TenantView is one tenant's comm.ServerTransport over a shared Server:
// its client ids are tenant-local, its inbox carries only this tenant's
// traffic, and Close is a no-op (the shared Server owns the listener and
// sockets — close it instead). Its gathers, Forgive, Outstanding and
// RecvChunkFrom are the embedded inbox's; a connection's sender is known,
// so the inbox holds each update's ClientID to its connection's slot.
type TenantView struct {
	*comm.Inbox
	s      *Server
	tenant int
	off    int // global slot of local client 0
	n      int // roster size

	sendMu sync.Mutex    // one dispatch at a time: its encoded model is shared by the writers
	enc    wire.Encoder  // the dispatch's model, encoded once; under sendMu
	segs   [][]byte      // that encoding's slices; under sendMu
	frames []frameWriter // per client, for that client's dispatch writer; under sendMu
}

// Listen starts a server on addr (e.g. "127.0.0.1:0") and returns it
// without accepting yet; call Accept next. Addr() reports the bound
// address.
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	specs := cfg.tenants()
	sizes := make([]int, len(specs))
	total := 0
	for i, t := range specs {
		if t.NumClients <= 0 {
			return nil, fmt.Errorf("rpc: tenant %d NumClients must be positive", i)
		}
		sizes[i] = t.NumClients
		total += t.NumClients
	}
	table, err := comm.NewTenantTable(sizes)
	if err != nil {
		return nil, fmt.Errorf("rpc: %w", err)
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 30 * time.Second
	}
	if cfg.ResumeWait == 0 {
		cfg.ResumeWait = time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	deadGen := make([]int, total)
	for i := range deadGen {
		deadGen[i] = -1
	}
	s := &Server{
		cfg:      cfg,
		specs:    specs,
		table:    table,
		total:    total,
		ln:       ln,
		conns:    make([]net.Conn, total),
		gens:     make([]int, total),
		deadGen:  deadGen,
		resumeCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.views = make([]*TenantView, len(specs))
	for t := range specs {
		v := &TenantView{s: s, tenant: t, off: table.Global(t, 0), n: sizes[t], frames: make([]frameWriter, sizes[t])}
		v.Inbox = comm.NewInbox(comm.InboxConfig{
			Name: "rpc", Clients: sizes[t], Tenant: t, Stats: &s.stats, Done: s.done, Current: v.current,
		})
		s.views[t] = v
	}
	s.TenantView = s.views[0]
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Tenant returns tenant t's comm.ServerTransport view. Tenant 0 is the
// default tenant a single-tenant server serves.
func (s *Server) Tenant(t int) *TenantView { return s.views[t] }

// Tenants returns the number of tenants this server hosts.
func (s *Server) Tenants() int { return len(s.views) }

// Accept blocks until every client of every tenant has connected and
// completed the Join handshake, then starts one reader per connection and
// a background acceptor for Resume joins. Each tenant's client IDs must be
// unique within the tenant and in [0, its NumClients). A join that is
// malformed, names an unknown tenant or an out-of-range id, or repeats a
// taken id costs its own connection and nothing else: it is closed before
// any JoinAck is written (the stray Dial fails) and Accept keeps waiting
// for the legitimate clients until AcceptTimeout.
func (s *Server) Accept() error {
	deadline := time.Now().Add(s.cfg.AcceptTimeout)
	var rejected error // the last join turned away, for the timeout's error
	for joined := 0; joined < s.total; {
		if tl, ok := s.ln.(*net.TCPListener); ok {
			if err := tl.SetDeadline(deadline); err != nil {
				return err
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			return errors.Join(fmt.Errorf("rpc: accept after %d/%d joins: %w", joined, s.total, err), rejected)
		}
		if err := s.join(conn, deadline); err != nil {
			conn.Close()
			rejected = err
			continue
		}
		joined++
	}
	if tl, ok := s.ln.(*net.TCPListener); ok {
		if err := tl.SetDeadline(time.Time{}); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for slot, conn := range s.conns {
		go s.readLoop(slot, s.gens[slot], conn)
	}
	s.mu.Unlock()
	go s.acceptResumes()
	return nil
}

// join runs one initial Join handshake on conn, under a deadline no later
// than the accept deadline, and seats the client in its slot.
func (s *Server) join(conn net.Conn, deadline time.Time) error {
	if d := time.Now().Add(joinTimeout); d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	_, slot, err := s.readJoin(conn)
	if err != nil {
		return err
	}
	s.mu.Lock()
	dup := s.conns[slot] != nil
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("rpc: duplicate join for client slot %d", slot)
	}
	if err := s.ackJoin(conn, slot); err != nil {
		return err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	s.mu.Lock()
	s.conns[slot] = conn
	s.mu.Unlock()
	return nil
}

// readJoin reads and decodes a Join frame, validating the tenant and
// client ID against the tenant table and returning the global slot. An
// unknown tenant or out-of-range client id is an error, never a panic.
func (s *Server) readJoin(conn net.Conn) (*wire.Join, int, error) {
	var hdr frameHeader
	kind, n, err := hdr.read(conn, maxJoinFrame)
	if err != nil {
		return nil, 0, fmt.Errorf("rpc: join read: %w", err)
	}
	if kind != wire.KindJoin {
		return nil, 0, fmt.Errorf("rpc: expected Join, got %v", kind)
	}
	var join wire.Join
	var dec wire.Decoder
	if bad, err := recvMessage(&dec, conn, n, &join); err != nil || bad != nil {
		return nil, 0, fmt.Errorf("rpc: join decode: %w", errors.Join(bad, err))
	}
	s.stats.AddRecv(n)
	slot, err := s.table.Route(join.TenantID, join.ClientID)
	if err != nil {
		return nil, 0, fmt.Errorf("rpc: join rejected: %w", err)
	}
	return &join, slot, nil
}

// ackJoin accepts a join by answering with the owning tenant's run
// configuration.
func (s *Server) ackJoin(conn net.Conn, slot int) error {
	t, _ := s.table.Owner(slot)
	spec := s.specs[t]
	ack := wire.JoinAck{
		NumClients: uint32(spec.NumClients),
		Rounds:     uint32(spec.Rounds),
		ModelSize:  uint64(spec.ModelSize),
		Plan:       spec.Plan,
	}
	var e wire.Encoder
	if err := writeFrame(conn, wire.KindJoinAck, len(e.Encode(&ack)), e.Bytes()); err != nil {
		return fmt.Errorf("rpc: join ack: %w", err)
	}
	s.stats.AddSent(e.Len())
	return nil
}

// acceptResumes keeps accepting connections after the initial cohort has
// joined: each must carry a Resume join naming an existing session, whose
// connection is then swapped for the new one. A non-resume join at this
// stage is rejected BEFORE any JoinAck is written, so the stray client's
// Dial fails instead of succeeding against a connection the server is
// about to drop. Runs until Close.
func (s *Server) acceptResumes() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A dead conn fails the handshake's first read, so the deadline
		// calls' own errors add nothing.
		_ = conn.SetDeadline(time.Now().Add(joinTimeout))
		join, slot, err := s.readJoin(conn)
		if err != nil || !join.Resume {
			conn.Close()
			continue
		}
		if err := s.ackJoin(conn, slot); err != nil {
			conn.Close()
			continue
		}
		_ = conn.SetDeadline(time.Time{})
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		// The old connection is NOT closed here: the client closed its
		// side, and its reader must be allowed to drain any frames still
		// buffered (a goodbye sent just before the disconnect) before it
		// sees EOF and exits. Closing server-side would discard them.
		s.conns[slot] = conn
		s.gens[slot]++
		s.deadGen[slot] = -1
		gen := s.gens[slot]
		// Wake any dispatch waiting out a dying connection.
		close(s.resumeCh)
		s.resumeCh = make(chan struct{})
		s.mu.Unlock()
		go s.readLoop(slot, gen, conn)
	}
}

// readLoop decodes every frame from one client connection and feeds it to
// the owning tenant's inbox. Each connection's reader decodes its own
// frames straight off the socket into recycled messages (see
// comm.NewUpdate), so a cohort's uploads deserialize side by side and a
// dense vector is written exactly once, where the fold will read it — or,
// in windowed mode, cut into chunk windows the fold reads one at a time
// (readWindowed). On a connection error it posts one tagged failure and
// exits; the inbox decides whether that failure matters (the client's
// current connection) to a gather or a stream, or is ordinary teardown
// noise.
func (s *Server) readLoop(slot, gen int, conn net.Conn) {
	t, local := s.table.Owner(slot)
	view := s.views[t]
	r := &reader{in: view.Inbox, client: local, gen: gen, conn: conn, dim: s.specs[t].ModelSize}
	r.cut = r.cutPrimal
	limit := frameLimit(s.specs[t].ModelSize)
	for {
		kind, n, err := r.hdr.read(conn, limit)
		if err == nil && kind == wire.KindModelChunk {
			// Streamed chunks bypass the gathers (and the obligation
			// ledger): StreamGather drains them per client.
			a := comm.Arrival{Client: local, Chunk: comm.NewChunk(), Size: n}
			if a.Bad, err = recvMessage(&r.dec, conn, n, a.Chunk); err == nil {
				if !view.PostChunk(a) {
					return
				}
				continue
			}
		}
		a := comm.Arrival{Client: local, Gen: gen}
		switch {
		case err != nil:
			a.Err = fmt.Errorf("rpc: gather from client %d: %w", local, err)
		case kind != wire.KindLocalUpdate:
			a.Err = fmt.Errorf("rpc: client %d sent %v, want LocalUpdate", local, kind)
		default:
			if w := int(s.window.Load()); w > 0 {
				var open bool
				if a, open = r.readWindowed(n, w); !open {
					return
				}
				if a.Update == nil && a.Err == nil {
					continue // nothing for the gathers: the chunk side has it
				}
				break
			}
			a.Update, a.Size = comm.NewUpdate(), n
			if a.Bad, err = recvMessage(&r.dec, conn, n, a.Update); err != nil {
				a.Err = fmt.Errorf("rpc: gather from client %d: %w", local, err)
			}
		}
		if !view.Post(a) || a.Err != nil {
			return
		}
	}
}

// reader is one connection's read side: the frame header and decoder
// scratch, and what a windowed upload needs while it is read.
type reader struct {
	in          *comm.Inbox // the owning tenant's
	client, gen int         // tenant-local client id, connection generation
	conn        net.Conn
	dim         int // the negotiated model size, the only primal length a window may cut
	hdr         frameHeader
	dec         wire.Decoder

	u      *wire.LocalUpdate // the upload being read
	window int
	posted int               // windows of its primal posted so far
	cut    func(n int) error // cutPrimal, bound once
}

// readWindowed reads one n-byte LocalUpdate frame in windowed mode:
// fields 1–3 into a pooled update, the dense primal straight into pooled
// ModelChunks of window coordinates posted on the client's chunk side as
// it is read (so at most the inbox's chunk queue of them exists at a
// time), and the remaining fields into the same update, which it returns
// — without its primal, carrying the frame's byte count — for the
// gathers. An update without a primal (a goodbye) is announced on the
// chunk side by an empty arrival. A malformed frame is reported where the
// gather will look next: on the chunk side while the primal is
// incomplete (the returned arrival is then empty), in the returned
// arrival once it is not. open is false once the server is closed.
func (r *reader) readWindowed(n, window int) (a comm.Arrival, open bool) {
	a = comm.Arrival{Client: r.client, Gen: r.gen}
	r.u, r.window, r.posted = comm.NewUpdate(), window, 0
	u := r.u
	r.dec.ResetStream(r.conn, n)
	bad := u.UnmarshalWindowed(&r.dec, r.cut)
	if errors.Is(bad, errClosed) {
		comm.ReleaseUpdate(u)
		return a, false
	}
	err := r.dec.ReadErr()
	if err == nil && bad == nil {
		// Only a goodbye comes without a primal, and a goodbye folds
		// nothing (splitControl), so it may not bring one.
		switch goodbye := u.Control == wire.ControlGoodbye; {
		case goodbye && r.posted > 0:
			bad = errors.New("goodbye carries a primal")
		case !goodbye && r.posted == 0:
			bad = errors.New("update carries an empty primal")
		}
	}
	if err == nil && bad != nil {
		err = r.dec.Drain()
	}
	if err != nil {
		comm.ReleaseUpdate(u)
		a.Err = fmt.Errorf("rpc: gather from client %d: %w", r.client, err)
		return a, true
	}
	switch {
	case bad != nil && r.posted < wire.ChunkPlan(r.dim, window):
		comm.ReleaseUpdate(u)
		bad = fmt.Errorf("rpc: update decode from client %d: %w", r.client, bad)
		return a, r.in.PostChunk(comm.Arrival{Client: r.client, Bad: bad})
	case bad != nil:
		a.Bad = bad
	case r.posted == 0 && !r.in.PostChunk(comm.Arrival{Client: r.client}):
		comm.ReleaseUpdate(u)
		return a, false
	}
	a.Update, a.Size = u, n
	return a, true
}

// errClosed is what cutting a primal meets once the server is closed.
var errClosed = errors.New("rpc: server closed")

// cutPrimal reads the current upload's n-value primal off the decoder
// into consecutive windows, each posted on the client's chunk side as a
// ModelChunk of the stream StreamUpload would have sent. A primal of any
// length but the model's is refused before a value is read.
func (r *reader) cutPrimal(n int) error {
	if n == 0 {
		return nil // a goodbye's; readWindowed decides
	}
	if n != r.dim {
		return fmt.Errorf("rpc: primal of %d coordinates, the model has %d", n, r.dim)
	}
	u, count := r.u, wire.ChunkPlan(r.dim, r.window)
	for c := 0; c < count; c++ {
		lo, hi := wire.ChunkRange(r.dim, r.window, c)
		mc := comm.NewChunk()
		p := mc.Payload
		if p == nil {
			p = new(wire.Payload)
		}
		*mc = wire.ModelChunk{
			ClientID: u.ClientID, Round: u.Round, Index: uint32(c), Count: uint32(count),
			Lo: uint32(lo), Hi: uint32(hi), Dim: uint32(r.dim), NumSamples: u.NumSamples, Payload: p,
		}
		p.Enc, p.Dim = wire.EncDense, uint32(hi-lo)
		p.Dense = slices.Grow(p.Dense[:0], hi-lo)[:hi-lo]
		if err := r.dec.ReadDoubles(p.Dense); err != nil {
			comm.ReleaseChunk(mc)
			return err
		}
		if !r.in.PostChunk(comm.Arrival{Client: r.client, Chunk: mc}) {
			return errClosed
		}
		r.posted++
	}
	return nil
}

// conn returns the current connection of global slot c.
func (s *Server) conn(c int) net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[c]
}

// awaitFresh waits up to ResumeWait for slot c's connection to be
// spliced away from old, returning the fresh connection or nil if no
// resume landed in time. Waiters are woken by the splice signal rather
// than polling.
func (s *Server) awaitFresh(c int, old net.Conn) net.Conn {
	deadline := time.NewTimer(s.cfg.ResumeWait)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		cur, ch := s.conns[c], s.resumeCh
		s.mu.Unlock()
		if cur != old {
			return cur
		}
		select {
		case <-ch:
		case <-deadline.C:
			return nil
		case <-s.done:
			return nil
		}
	}
}

// Unreachable returns this tenant's clients (tenant-local ids) whose
// current connection is known dead and not (yet) resumed — a
// deadline-driven caller excludes them from dispatch instead of opening
// obligations nothing can settle.
func (v *TenantView) Unreachable() []int {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for c := 0; c < v.n; c++ {
		g := v.off + c
		if s.deadGen[g] == s.gens[g] {
			out = append(out, c)
		}
	}
	return out
}

// current is the inbox's judge of a connection failure (see
// comm.InboxConfig): a failure on client c's current connection of an
// open server marks c unreachable — Unreachable reports it until a resume
// advances the generation; a failure on an older generation is the
// teardown of a connection the client has already replaced.
func (v *TenantView) current(c, gen int) bool {
	s, g := v.s, v.off+c
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := gen == s.gens[g] && !s.closed
	if cur {
		s.deadGen[g] = gen
	}
	return cur
}

// Broadcast sends the global model to every client of this tenant
// concurrently.
func (v *TenantView) Broadcast(m *wire.GlobalModel) error {
	return v.SendTo(comm.AllClients(v.n), m)
}

// SendTo sends the global model to the listed clients (tenant-local ids)
// concurrently. Each non-final model opens an obligation for the client's
// reply. The model is serialized before SendTo returns, so the caller may
// reuse its storage.
func (v *TenantView) SendTo(clients []int, m *wire.GlobalModel) error {
	const kind = wire.KindGlobalModel
	s := v.s
	for _, c := range clients {
		if c < 0 || c >= v.n {
			return fmt.Errorf("rpc: send to unknown client %d", c)
		}
		// A client whose connection died while idle has no reader left: a
		// write could still land in the socket buffer, opening an
		// obligation nothing can ever settle. Fail loudly instead (a
		// resume clears this by advancing the generation).
		g := v.off + c
		s.mu.Lock()
		dead := s.deadGen[g] == s.gens[g]
		s.mu.Unlock()
		if dead {
			return fmt.Errorf("rpc: send to client %d whose connection is down", c)
		}
	}
	if err := v.Open(clients, m); err != nil {
		return err
	}
	// The model is serialized once, its weights left where they are; every
	// per-client writer sends the same slices, which stay untouched until
	// the last writer has returned.
	v.sendMu.Lock()
	defer v.sendMu.Unlock()
	v.segs = v.enc.EncodeVectored(m, v.segs)
	payload, size := v.segs, v.enc.Len()
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i, c int) {
			defer wg.Done()
			g := v.off + c
			conn := s.conn(g)
			f := &v.frames[c]
			err := f.write(conn, kind, size, payload...)
			if err != nil {
				// The write may have raced a session resume (the client
				// dropped this connection as it spliced in a new one).
				// Wait on the splice signal up to ResumeWait and retry
				// once on the fresh connection; a client that never
				// resumes keeps the original error.
				if fresh := s.awaitFresh(g, conn); fresh != nil {
					err = f.write(fresh, kind, size, payload...)
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("rpc: send to client %d: %w", c, err)
				if !m.Final {
					// No reply can come from a model that never left:
					// roll the obligation back so the ledger stays
					// consistent for callers that recover from the error.
					v.Rollback(c)
				}
				return
			}
			s.stats.AddSent(size)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns the shared server's traffic snapshot (traffic accounting
// is per process, not per tenant).
func (v *TenantView) Stats() comm.Snapshot { return v.s.stats.Snapshot() }

// Close is a no-op: the shared Server owns the listener and sockets, and
// one tenant finishing its run must not tear down its neighbors. Close
// the Server itself to release resources.
func (v *TenantView) Close() error { return nil }

// Stats returns the traffic snapshot.
func (s *Server) Stats() comm.Snapshot { return s.stats.Snapshot() }

// Close shuts the listener and all client connections of every tenant.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.ln.Close()
	for _, c := range s.conns {
		if c != nil {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Client is the comm.ClientTransport over TCP.
//
// The client keeps its encoder, its decoder and the GlobalModel it decodes
// into across rounds, so a steady run does not allocate per message; a
// dense vector goes from its []float64 to the socket and from the socket
// to its []float64 without a frame-sized buffer in between. One goroutine
// sends and one receives at a time (the client loop does both).
type Client struct {
	id     uint32
	tenant uint32
	name   string
	addr   string
	ack    wire.JoinAck
	stats  comm.Stats

	enc      wire.Encoder     // uplink messages
	segs     [][]byte         // the current uplink message's slices
	frame    frameWriter      // uplink frames
	hdr      frameHeader      // downlink frame headers
	dec      wire.Decoder     // downlink payloads, off the connection
	global   wire.GlobalModel // what RecvGlobal returns; recycled per call
	chunkAck wire.ChunkAck    // what RecvChunkAck returns; recycled per call
	limit    int              // downlink frame bound, from the JoinAck
	// salvaged marks global as holding a model Resume read off the old
	// connection, which the next RecvGlobal hands out. torn marks the
	// current connection as having failed a read, possibly mid-frame:
	// nothing further on it can be trusted to start at a frame boundary.
	salvaged, torn bool

	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// errClientClosed is what Resume reports once Close has been called: the
// session is over, not interrupted, and must not be retried.
var errClientClosed = errors.New("rpc: client closed")

// Dial connects to the server, performs the Join handshake, and returns
// the client transport joined to the default tenant.
func Dial(addr string, id uint32, name string) (*Client, error) {
	return DialTenant(addr, 0, id, name)
}

// DialTenant connects to a multi-tenant server, joining tenant `tenant`
// with the tenant-local client id. Tenant 0 is the default tenant (the
// single-tenant Dial). Every update sent through the returned transport
// is stamped with the tenant id so the server's demux can validate it.
func DialTenant(addr string, tenant, id uint32, name string) (*Client, error) {
	c := &Client{id: id, tenant: tenant, name: name, addr: addr}
	if err := c.dial(false); err != nil {
		return nil, err
	}
	return c, nil
}

// dial establishes (or re-establishes) the connection and performs the
// Join handshake, marking it a Resume when reconnecting.
func (c *Client) dial(resume bool) error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	join := wire.Join{ClientID: c.id, Name: c.name, Resume: resume, TenantID: c.tenant}
	var e wire.Encoder
	if err := writeFrame(conn, wire.KindJoin, len(e.Encode(&join)), e.Bytes()); err != nil {
		conn.Close()
		return fmt.Errorf("rpc: join send: %w", err)
	}
	c.stats.AddSent(e.Len())
	var hdr frameHeader
	kind, n, err := hdr.read(conn, maxJoinFrame)
	if err != nil {
		conn.Close()
		return fmt.Errorf("rpc: join ack read: %w", err)
	}
	if kind != wire.KindJoinAck {
		conn.Close()
		return fmt.Errorf("rpc: expected JoinAck, got %v", kind)
	}
	var dec wire.Decoder
	if bad, err := recvMessage(&dec, conn, n, &c.ack); err != nil || bad != nil {
		conn.Close()
		return fmt.Errorf("rpc: join ack decode: %w", errors.Join(bad, err))
	}
	c.stats.AddRecv(n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Close raced this redial: do not resurrect the session.
		conn.Close()
		return errClientClosed
	}
	c.conn, c.torn = conn, false
	c.limit = frameLimit(int(c.ack.ModelSize))
	return nil
}

// ErrResumeRetryable tags a Resume attempt that failed without reaching a
// splice: the dial was refused or the handshake tore — the signature of a
// resume racing a server restart. The client's previous connection (and
// the server-side session, if the server survives) is left exactly as it
// was, so the caller backs off and retries rather than declaring the
// session dead; once the server is listening again the retry splices.
var ErrResumeRetryable = errors.New("rpc: resume did not splice (server restarting?)")

// Resume redials the server with a Resume join and then drops the old
// connection, splicing this client back into its session — the
// reconnect-with-session-resumption path of the rejoin handshake. The
// new connection is established FIRST so the server is never left
// holding a closed socket as the client's only address: a dispatch
// racing the resume sees either the old conn (its write is absorbed or
// retried on the new one) or the spliced conn, not a gap. A Resume that
// races a server restart fails with ErrResumeRetryable and changes
// nothing: retry once the server is back.
func (c *Client) Resume() error {
	old, torn := c.current(), c.torn
	if err := c.dial(true); err != nil {
		if errors.Is(err, errClientClosed) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrResumeRetryable, err)
	}
	if old != nil {
		if !torn {
			c.salvage(old)
		}
		old.Close()
	}
	return nil
}

// salvage rescues a model the server dispatched on the old connection
// while the redial was still in flight (it could not know yet): whatever
// had already arrived there is read before the connection is dropped, and
// the next RecvGlobal returns it. Without this the dispatch is lost and the
// round waits out its timeout on a client that was there all along.
func (c *Client) salvage(old net.Conn) {
	_ = old.SetReadDeadline(time.Now().Add(salvageWait))
	kind, n, err := c.hdr.read(old, c.limit)
	if err != nil || kind != wire.KindGlobalModel {
		return
	}
	_ = old.SetReadDeadline(time.Now().Add(joinTimeout))
	if bad, err := recvMessage(&c.dec, old, n, &c.global); bad == nil && err == nil {
		c.stats.AddRecv(n)
		c.salvaged = true
	}
}

// current returns the live connection.
func (c *Client) current() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// Config returns the run configuration received at join time.
func (c *Client) Config() wire.JoinAck { return c.ack }

// recv reads the next downlink frame off conn: its kind, and — when the
// kind is the one the caller waits for — its payload decoded into m.
func (c *Client) recv(conn net.Conn, want wire.Kind, m interface{ Unmarshal(*wire.Decoder) error }) (wire.Kind, error) {
	c.mu.Lock()
	limit := c.limit
	c.mu.Unlock()
	kind, n, err := c.hdr.read(conn, limit)
	if err != nil || kind != want {
		c.torn = c.torn || err != nil
		return kind, err
	}
	bad, err := recvMessage(&c.dec, conn, n, m)
	if err != nil || bad != nil {
		c.torn = c.torn || err != nil
		return kind, errors.Join(bad, err)
	}
	c.stats.AddRecv(n)
	return kind, nil
}

// RecvGlobal blocks for the next global model. The returned model is
// decoded into storage the client keeps, and is valid until the next
// RecvGlobal.
func (c *Client) RecvGlobal() (*wire.GlobalModel, error) {
	if c.salvaged {
		c.salvaged = false
		return &c.global, nil
	}
	kind, err := c.recv(c.current(), wire.KindGlobalModel, &c.global)
	if err != nil {
		return nil, err
	}
	if kind == wire.KindShutdown {
		return &wire.GlobalModel{Final: true}, nil
	}
	if kind != wire.KindGlobalModel {
		return nil, fmt.Errorf("rpc: expected GlobalModel, got %v", kind)
	}
	return &c.global, nil
}

// ReceiveInto lends w to the kept model: every later dense broadcast,
// salvaged ones included, is decoded into it.
func (c *Client) ReceiveInto(w []float64) { c.global.Weights = w[:0] }

// send frames m and writes it in one vectored call, its large vectors
// straight from where they are.
func (c *Client) send(kind wire.Kind, m wire.Marshaler) error {
	c.segs = c.enc.EncodeVectored(m, c.segs)
	if err := c.frame.write(c.current(), kind, c.enc.Len(), c.segs...); err != nil {
		return err
	}
	c.stats.AddSent(c.enc.Len())
	return nil
}

// SendUpdate uploads the local update, stamped with this client's tenant.
// The update is on the wire when SendUpdate returns.
func (c *Client) SendUpdate(m *wire.LocalUpdate) error {
	m.TenantID = c.tenant
	return c.send(wire.KindLocalUpdate, m)
}

// Stats returns the traffic snapshot.
func (c *Client) Stats() comm.Snapshot { return c.stats.Snapshot() }

// Close closes the connection and ends the session: a later Resume fails
// for good instead of redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// Interface conformance checks.
var (
	_ comm.ServerTransport = (*Server)(nil)
	_ comm.ServerTransport = (*TenantView)(nil)
	_ comm.Unreachables    = (*Server)(nil)
	_ comm.Unreachables    = (*TenantView)(nil)
	_ comm.ClientTransport = (*Client)(nil)
	_ comm.SessionResumer  = (*Client)(nil)
)
