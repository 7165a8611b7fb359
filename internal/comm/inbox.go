package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// errClosed reports a gather or chunk receive on a server transport that
// has been closed.
var errClosed = errors.New("comm: transport closed")

// chunkQueue is how many received chunks of one client wait for the
// stream gather. With what the feeder holds and what the backend itself
// buffers, it bounds how far a client streams ahead of the gather.
const chunkQueue = 4

// arrival is one message a server transport received and decoded, or a
// connection failure, queued for the gathers or a chunk receive.
type arrival struct {
	client int // the tenant-local client that sent it
	// gen is the generation of the connection it came in on (rpc); it
	// says whether an err is about the client's current connection.
	gen    int
	update *wire.LocalUpdate // an update arrival
	chunk  *wire.ModelChunk  // a chunk arrival; neither on the chunk side: the upload carries no vector
	size   int               // payload bytes, for the traffic counters
	err    error             // connection-level failure
	bad    error             // the message arrived whole but did not decode
}

// InboxConfig describes the server transport an Inbox serves.
type InboxConfig struct {
	Name    string // the transport's error prefix: "mpi", "pubsub", "rpc"
	Clients int    // roster size; client ids are [0, Clients)
	Tenant  int    // the TenantID every update must carry
	Stats   *Stats // counts what the gathers take in
	// Done is closed when the transport closes: every wait ends then, and
	// nothing more is queued.
	Done <-chan struct{}
	// Current, when set, judges a connection failure (Fail): it reports
	// whether the failure is about client's current connection (and
	// records that the client is unreachable), or is the teardown of a
	// connection the client has already replaced. Only a current failure
	// fails a blocking gather waiting on that client, or a chunk receive
	// from it. Without it every failure is current.
	Current func(client, gen int) bool
}

// Inbox is the receive side every server transport shares: the decode of
// what each client sends, the obligation ledger, the arrival queue the
// gathers drain, one chunk queue per client and the deadline timer. Each
// backend embeds one and points it at each message a client sends
// (Receive), or reports that the client's connection failed (Fail); the
// inbox implements the ServerTransport gathers, Forgive and Outstanding,
// and ChunkGatherer's RecvChunkFrom and UploadWindower's WindowUploads, so
// that every transport applies the same rules to what it receives:
//
//   - no gather asks for more than is outstanding;
//   - an update's ClientID is its sender's;
//   - its TenantID is the inbox's tenant;
//   - it settles its client's obligation; it is discarded if it belongs
//     to a forgiven round or its client owes nothing;
//   - a current connection failure fails a blocking gather while its
//     client owes an update, and a chunk receive from it; under a deadline
//     it only lets the deadline expire.
//
// One goroutine gathers at a time.
type Inbox struct {
	cfg    InboxConfig
	ledger *Ledger
	// arrivals holds two messages per client: the update it owes, and one
	// that the ledger will discard (late, repeated or unsolicited), so
	// that a client sending one too many does not wait for the gather.
	arrivals chan arrival
	chunks   []chan arrival
	timer    *time.Timer // GatherUntil's deadline, reused
	win      atomic.Pointer[windowing]

	// broken[c] holds a signal while client c's latest connection failure
	// (failed[c], under mu) has not been seen by its chunk side: a failure
	// is not queued behind chunks that nobody may ever drain.
	mu     sync.Mutex
	failed []arrival
	broken []chan struct{}
}

// NewInbox builds the inbox of a server transport.
func NewInbox(cfg InboxConfig) *Inbox {
	b := &Inbox{
		cfg:      cfg,
		ledger:   NewLedger(cfg.Clients),
		arrivals: make(chan arrival, 2*cfg.Clients),
		chunks:   make([]chan arrival, cfg.Clients),
		failed:   make([]arrival, cfg.Clients),
		broken:   make([]chan struct{}, cfg.Clients),
	}
	for i := range b.chunks {
		b.chunks[i] = make(chan arrival, chunkQueue)
		b.broken[i] = make(chan struct{}, 1)
	}
	return b
}

// Open is a dispatch's bookkeeping: every listed client must be on the
// roster, and a non-final model opens one obligation per client for its
// round — for all of them or none, so that an unknown client or one that
// already owes an update leaves the ledger untouched.
func (b *Inbox) Open(clients []int, m *wire.GlobalModel) error {
	for _, c := range clients {
		if c < 0 || c >= b.cfg.Clients {
			return fmt.Errorf("%s: send to unknown client %d", b.cfg.Name, c)
		}
	}
	if m.Final {
		return nil
	}
	if err := b.ledger.Open(clients, m.Round); err != nil {
		return fmt.Errorf("%s: %w", b.cfg.Name, err)
	}
	return nil
}

// Rollback withdraws client c's obligation for a model that never left.
func (b *Inbox) Rollback(c int) { b.ledger.Rollback(c) }

// Forgive closes the open obligations of the listed clients; their late
// updates, if any ever arrive, are discarded (comm.ServerTransport).
func (b *Inbox) Forgive(clients []int) { b.ledger.Forgive(clients) }

// Outstanding returns the sorted clients with open update obligations.
func (b *Inbox) Outstanding() []int { return b.ledger.Outstanding() }

// windowing is an inbox's windowed mode: the width each upload's dense
// primal is cut into, and the model size, the only primal length it cuts.
type windowing struct{ window, dim int }

// WindowUploads switches windowed mode (UploadWindower): while window and
// dim are positive, Receive cuts each LocalUpdate's dense primal of dim
// values into ModelChunks of window coordinates on its sender's chunk
// queue as it decodes the message, and the gathers receive the update
// without it. WindowUploads(0, 0) switches the mode off.
func (b *Inbox) WindowUploads(window, dim int) {
	if window <= 0 || dim <= 0 {
		b.win.Store(nil)
		return
	}
	b.win.Store(&windowing{window: window, dim: dim})
}

// Receive decodes the message of the given kind that dec has been pointed
// at — size bytes from client, over its connection generation gen — and
// queues it: every backend's one decode entry. rpc's readers point dec at
// the socket (ResetStream); mpi's reply receivers and pubsub's topic
// handlers point it at an in-process frame (Reset) and pass the frame
// along, to go back to tensor's byte pool once decoded (EncodeFrame).
// Receive blocks while the queue it feeds is full. A chunk goes to
// client's chunk queue, an update to the gathers: decoded whole, or in
// windowed mode (WindowUploads) with its dense primal cut into windows on
// client's chunk queue as it is read. A message that arrived whole but
// does not decode is queued as such, the stream kept in step; one the
// stream cut short, or of a kind a client may not send, is a connection
// failure. Receive reports false after a connection failure or once the
// transport is closed: the backend stops reading.
func (b *Inbox) Receive(dec *wire.Decoder, kind wire.Kind, client, gen, size int, frame []byte) bool {
	a := arrival{client: client, gen: gen, size: size}
	w := b.win.Load()
	windows := -1 // in windowed mode, the windows of the primal queued
	switch {
	case kind == wire.KindModelChunk:
		a.chunk = NewChunk()
		a.bad = a.chunk.Unmarshal(dec)
	case kind != wire.KindLocalUpdate:
		b.post(arrival{client: client, gen: gen, err: fmt.Errorf("%s: client %d sent %v, want LocalUpdate", b.cfg.Name, client, kind)})
		return false
	case w != nil:
		a.update, windows, a.bad = b.cut(dec, client, *w)
	default:
		a.update = NewUpdate()
		a.bad = a.update.Unmarshal(dec)
	}
	tensor.PutBytes(frame)
	if errors.Is(a.bad, errClosed) {
		ReleaseUpdate(a.update)
		return false
	}
	if a.bad != nil {
		err := dec.ReadErr()
		if err == nil {
			err = dec.Drain()
		}
		if err != nil {
			ReleaseChunk(a.chunk)
			ReleaseUpdate(a.update)
			b.Fail(client, gen, err)
			return false
		}
	}
	switch {
	case a.chunk != nil:
		return b.postChunk(a)
	case windows < 0: // decoded whole
	case a.bad != nil && windows < wire.ChunkPlan(w.dim, w.window):
		// The gather is still reading the primal: it hears of the fault
		// there.
		ReleaseUpdate(a.update)
		bad := fmt.Errorf("%s: update decode from client %d: %w", b.cfg.Name, client, a.bad)
		return b.postChunk(arrival{client: client, bad: bad})
	case windows == 0 && a.bad == nil && !b.postChunk(arrival{client: client}):
		// A goodbye brings no vector: an empty arrival tells the chunk side.
		ReleaseUpdate(a.update)
		return false
	}
	return b.post(a)
}

// Fail reports that client's connection of generation gen failed: the
// failure reaches the gathers and the client's chunk side at once, where
// InboxConfig.Current judges it.
func (b *Inbox) Fail(client, gen int, err error) {
	b.post(arrival{client: client, gen: gen, err: fmt.Errorf("%s: gather from client %d: %w", b.cfg.Name, client, err)})
}

// post queues an update arrival or a connection failure for the gathers,
// blocking while the queue is full; a failure also reaches the client's
// chunk side at once. It reports false once the transport is closed.
func (b *Inbox) post(a arrival) bool {
	if a.err != nil {
		b.mu.Lock()
		b.failed[a.client] = a
		b.mu.Unlock()
		b.signal(a.client)
	}
	select {
	case b.arrivals <- a:
		return true
	case <-b.cfg.Done:
		return false
	}
}

// signal tells client's chunk side that failed holds news; a signal
// already pending says the same.
func (b *Inbox) signal(client int) {
	select {
	case b.broken[client] <- struct{}{}:
	default:
	}
}

// postChunk queues a chunk-side arrival for a.client's stream, blocking
// while that client's queue is full — so that a client runs at most the
// queue ahead of the gather, the rest waiting in the backend. It reports
// false once the transport is closed.
func (b *Inbox) postChunk(a arrival) bool {
	select {
	case b.chunks[a.client] <- a:
		return true
	case <-b.cfg.Done:
		return false
	}
}

// cutter is one windowed upload's decode state: the update its other
// fields go into and how many windows of its primal are queued. It is
// pooled with its cut function bound, so a steady run of uploads
// allocates neither.
type cutter struct {
	in     *Inbox
	dec    *wire.Decoder
	client int
	w      windowing
	u      *wire.LocalUpdate
	posted int
	cut    func(n int) error // primal, bound once
}

var cutterPool = sync.Pool{New: func() any {
	c := new(cutter)
	c.cut = c.primal
	return c
}}

// cut decodes one LocalUpdate in windowed mode: fields 1–3 into a pooled
// update, the dense primal straight into windows queued on client's chunk
// side as it is read, and the remaining fields into the same update,
// which it returns without its primal, with the count of windows queued
// and what was wrong with the message (errClosed once the transport is
// closed).
func (b *Inbox) cut(dec *wire.Decoder, client int, w windowing) (*wire.LocalUpdate, int, error) {
	c := cutterPool.Get().(*cutter)
	*c = cutter{in: b, dec: dec, client: client, w: w, u: NewUpdate(), cut: c.cut}
	bad := c.u.UnmarshalWindowed(dec, c.cut)
	u, posted := c.u, c.posted
	*c = cutter{cut: c.cut}
	cutterPool.Put(c)
	// Only a goodbye comes without a primal, and a goodbye folds nothing,
	// so it may not bring one.
	switch goodbye := u.Control == wire.ControlGoodbye; {
	case bad != nil:
	case goodbye && posted > 0:
		bad = errors.New("goodbye carries a primal")
	case !goodbye && posted == 0:
		bad = errors.New("update carries an empty primal")
	}
	return u, posted, bad
}

// primal reads the current upload's n-value primal off the decoder into
// consecutive windows, each queued on the client's chunk side as a
// ModelChunk of the stream StreamUpload would have sent. A primal of any
// length but the model's is refused before a value is read.
func (c *cutter) primal(n int) error {
	if n == 0 {
		return nil // a goodbye's; cut decides
	}
	dim, window := c.w.dim, c.w.window
	if n != dim {
		return fmt.Errorf("%s: primal of %d coordinates, the model has %d", c.in.cfg.Name, n, dim)
	}
	u, count := c.u, wire.ChunkPlan(dim, window)
	for i := 0; i < count; i++ {
		lo, hi := wire.ChunkRange(dim, window, i)
		mc := NewChunk()
		p := mc.Payload
		if p == nil {
			p = new(wire.Payload)
		}
		*mc = wire.ModelChunk{
			ClientID: u.ClientID, Round: u.Round, Index: uint32(i), Count: uint32(count),
			Lo: uint32(lo), Hi: uint32(hi), Dim: uint32(dim), NumSamples: u.NumSamples, Payload: p,
		}
		p.Enc, p.Dim = wire.EncDense, uint32(hi-lo)
		p.Dense = slices.Grow(p.Dense[:0], hi-lo)[:hi-lo]
		if err := c.dec.ReadDoubles(p.Dense); err != nil {
			ReleaseChunk(mc)
			return err
		}
		if !c.in.postChunk(arrival{client: c.client, chunk: mc}) {
			return errClosed
		}
		c.posted++
	}
	return nil
}

// EncodeFrame encodes m into a frame from tensor's byte pool: an
// in-process upload, which its server decodes and returns to the pool
// (Receive). enc is the caller's kept encoder; it keeps nothing of the
// frame.
func EncodeFrame(enc *wire.Encoder, m wire.Marshaler) []byte {
	*enc = *wire.NewEncoder(tensor.GetBytes(0))
	frame := enc.Encode(m)
	*enc = wire.Encoder{}
	return frame
}

// SharedFrame is a dispatch's downlink frame on an in-process transport:
// encoded once into a frame from tensor's byte pool and queued for every
// scheduled receiver, the last of whom returns it to the pool once it has
// decoded it (Release). A receiver that never decodes it — a dropped or
// crashed client — leaves the frame to the garbage collector.
type SharedFrame struct {
	Bytes   []byte
	readers atomic.Int32
}

// EncodeShared encodes m into a SharedFrame that readers receivers will
// each Release once.
func EncodeShared(m wire.Marshaler, readers int) *SharedFrame {
	var enc wire.Encoder
	f := &SharedFrame{Bytes: EncodeFrame(&enc, m)}
	f.readers.Store(int32(readers))
	return f
}

// Release marks one receiver done with f; a nil f (a frame nobody shares)
// is left alone. Nothing may read f.Bytes after its own Release: the last
// one returns the bytes to the pool.
func (f *SharedFrame) Release() {
	if f != nil && f.readers.Add(-1) == 0 {
		tensor.PutBytes(f.Bytes)
	}
}

// GatherFrom collects exactly one update from each listed client, ordered
// as listed (comm.ServerTransport).
func (b *Inbox) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	got, err := b.GatherAny(len(clients))
	if err != nil {
		return nil, err
	}
	return OrderByClient(clients, got)
}

// GatherAny collects the next n outstanding updates in arrival order.
func (b *Inbox) GatherAny(n int) ([]*wire.LocalUpdate, error) {
	if owed := b.ledger.Owed(); n > owed {
		return nil, fmt.Errorf("%s: gathering %d updates with only %d outstanding", b.cfg.Name, n, owed)
	}
	return b.collect(n, nil)
}

// GatherUntil collects up to n outstanding updates in arrival order,
// giving up when the timeout elapses (comm.ServerTransport): n clamps to
// what is outstanding, nothing outstanding is an error, and timeout <= 0
// waits forever.
func (b *Inbox) GatherUntil(n int, timeout time.Duration) ([]*wire.LocalUpdate, error) {
	owed := b.ledger.Owed()
	if owed == 0 {
		return nil, fmt.Errorf("%s: gathering %d updates with only 0 outstanding", b.cfg.Name, n)
	}
	n = min(n, owed)
	if timeout <= 0 {
		return b.collect(n, nil)
	}
	if b.timer == nil {
		b.timer = time.NewTimer(timeout)
	} else {
		b.timer.Reset(timeout)
	}
	defer b.timer.Stop()
	return b.collect(n, b.timer.C)
}

// collect takes n admitted updates in arrival order. A nil timer waits
// forever; otherwise the gather gives up when the timer fires and returns
// the partial batch with ErrRoundTimeout.
func (b *Inbox) collect(n int, timer <-chan time.Time) ([]*wire.LocalUpdate, error) {
	out := make([]*wire.LocalUpdate, 0, n)
	for len(out) < n {
		var a arrival
		select {
		case a = <-b.arrivals:
		case <-timer:
			return out, fmt.Errorf("%s: %d of %d updates after deadline: %w", b.cfg.Name, len(out), n, ErrRoundTimeout)
		case <-b.cfg.Done:
			return nil, fmt.Errorf("%s: %w", b.cfg.Name, errClosed)
		}
		if a.err != nil {
			// A blocking gather has no other way to stop waiting on a
			// client that still owes an update, so it fails loudly; a
			// deadline gather lets the deadline expire instead, feeding the
			// caller's quorum machinery (forgive, bench, retry).
			if b.current(a) && timer == nil && b.ledger.Pending(a.client) {
				return nil, a.err
			}
			continue
		}
		u, err := b.screen(a)
		if err != nil {
			return nil, err
		}
		if !b.ledger.Admit(int(u.ClientID), u.Round) {
			ReleaseUpdate(u) // forgiven late or unsolicited: discard
			continue
		}
		out = append(out, u)
	}
	return out, nil
}

// current applies the Current hook to a failure.
func (b *Inbox) current(a arrival) bool {
	return b.cfg.Current == nil || b.cfg.Current(a.client, a.gen)
}

// screen counts an update arrival and checks what it says about itself
// against what the transport knows: a protocol error names the sending
// client.
func (b *Inbox) screen(a arrival) (*wire.LocalUpdate, error) {
	b.cfg.Stats.AddRecv(a.size)
	u, name := a.update, b.cfg.Name
	var err error
	switch id := int(u.ClientID); {
	case a.bad != nil:
		err = fmt.Errorf("%s: update decode from client %d: %w", name, a.client, a.bad)
	case id != a.client:
		err = fmt.Errorf("%s: client %d sent an update as client %d", name, a.client, id)
	case int(u.TenantID) != b.cfg.Tenant:
		err = fmt.Errorf("%s: update from client %d carries tenant %d, this transport serves tenant %d",
			name, id, u.TenantID, b.cfg.Tenant)
	}
	if err != nil {
		ReleaseUpdate(u)
		return nil, err
	}
	return u, nil
}

// RecvChunkFrom blocks for the next chunk of one client's stream
// (ChunkGatherer): a chunk the client streamed, or a window cut from its
// upload's primal in windowed mode, or nil for an upload that carries
// none. A current connection failure fails the receive once every chunk
// that arrived before it is taken.
func (b *Inbox) RecvChunkFrom(client int) (*wire.ModelChunk, error) {
	if client < 0 || client >= b.cfg.Clients {
		return nil, fmt.Errorf("%s: chunk receive from unknown client %d", b.cfg.Name, client)
	}
	for {
		select {
		case a := <-b.chunks[client]:
			return b.take(a)
		case <-b.broken[client]:
			// The backend queued every chunk it read before the failure
			// first: those are still the stream's.
			select {
			case a := <-b.chunks[client]:
				b.signal(client) // the failure comes after them
				return b.take(a)
			default:
			}
			b.mu.Lock()
			a := b.failed[client]
			b.mu.Unlock()
			if b.current(a) {
				return nil, a.err
			}
			// the teardown of a connection since replaced
		case <-b.cfg.Done:
			return nil, fmt.Errorf("%s: %w while awaiting a chunk from client %d", b.cfg.Name, errClosed, client)
		}
	}
}

// take counts a chunk-side arrival and hands over its chunk. A streamed
// chunk is a message of its own; a window cut from an upload is counted
// with the upload's update, and the chunk side's markers not at all.
func (b *Inbox) take(a arrival) (*wire.ModelChunk, error) {
	if a.size > 0 {
		b.cfg.Stats.AddRecv(a.size)
	}
	if a.bad != nil {
		ReleaseChunk(a.chunk)
		return nil, fmt.Errorf("%s: chunk decode from client %d: %w", b.cfg.Name, a.client, a.bad)
	}
	return a.chunk, nil
}
