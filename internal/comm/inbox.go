package comm

import (
	"errors"
	"fmt"
	"sync"
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

// Arrival is one message a server transport received and decoded, or a
// connection failure, handed to its Inbox. The backend decides how bytes
// move and who decodes them; what an arrival means is the inbox's rule.
type Arrival struct {
	// Client is the tenant-local client that sent it, or -1 where the
	// backend cannot know the sender (a shared pub/sub topic): the
	// update then names its own.
	Client int
	// Gen is the generation of the connection it came in on (rpc); it
	// says whether an Err is about the client's current connection.
	Gen    int
	Update *wire.LocalUpdate // an update arrival
	Chunk  *wire.ModelChunk  // a chunk arrival; neither on the chunk side: the upload carries no vector
	Size   int               // payload bytes, for the traffic counters
	Err    error             // connection-level failure
	Bad    error             // the message arrived whole but did not decode
}

// InboxConfig describes the server transport an Inbox serves.
type InboxConfig struct {
	Name    string // the transport's error prefix: "mpi", "pubsub", "rpc"
	Clients int    // roster size; client ids are [0, Clients)
	Tenant  int    // the TenantID every update must carry
	Stats   *Stats // counts what the gathers take in
	// Done is closed when the transport closes: every wait ends then, and
	// every Post is refused.
	Done <-chan struct{}
	// Current, when set, judges an Err arrival: it reports whether the
	// failure is about client's current connection (and records that the
	// client is unreachable), or is the teardown of a connection the
	// client has already replaced. Only a current failure fails a blocking
	// gather waiting on that client, or a chunk receive from it. Without
	// it every failure is current.
	Current func(client, gen int) bool
}

// Inbox is the receive side every server transport shares: the obligation
// ledger, the arrival queue the gathers drain, one chunk queue per client
// and the deadline timer. Each backend embeds one and feeds it decoded
// Arrivals (Post, PostChunk), or in-process frames for it to decode
// (PostFrame); the inbox implements the ServerTransport gathers, Forgive
// and Outstanding, and ChunkGatherer's RecvChunkFrom, so that every
// transport applies the same rules to what it receives:
//
//   - no gather asks for more than is outstanding;
//   - an update's ClientID is in range, and equal to its sender where the
//     backend knows the sender;
//   - its TenantID is the inbox's tenant;
//   - it settles its client's obligation, unless it belongs to a forgiven
//     round, which it is discarded for;
//   - a current connection failure fails a blocking gather while its
//     client owes an update, and a chunk receive from it; under a deadline
//     it only lets the deadline expire.
//
// One goroutine gathers at a time.
type Inbox struct {
	cfg      InboxConfig
	ledger   *Ledger
	arrivals chan Arrival
	chunks   []chan Arrival
	timer    *time.Timer // GatherUntil's deadline, reused

	// broken[c] holds a signal while client c's latest connection failure
	// (failed[c], under mu) has not been seen by its chunk side: a failure
	// is not queued behind chunks that nobody may ever drain.
	mu     sync.Mutex
	failed []Arrival
	broken []chan struct{}
}

// NewInbox builds the inbox of a server transport.
func NewInbox(cfg InboxConfig) *Inbox {
	b := &Inbox{
		cfg:      cfg,
		ledger:   NewLedger(cfg.Clients),
		arrivals: make(chan Arrival, cfg.Clients),
		chunks:   make([]chan Arrival, cfg.Clients),
		failed:   make([]Arrival, cfg.Clients),
		broken:   make([]chan struct{}, cfg.Clients),
	}
	for i := range b.chunks {
		b.chunks[i] = make(chan Arrival, chunkQueue)
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

// Post queues an update arrival or a connection failure for the gathers,
// blocking while the queue is full; a failure also reaches the client's
// chunk side at once. It reports false once the transport is closed.
func (b *Inbox) Post(a Arrival) bool {
	if a.Err != nil {
		b.mu.Lock()
		b.failed[a.Client] = a
		b.mu.Unlock()
		b.signal(a.Client)
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

// PostChunk queues a chunk-side arrival for a.Client's stream, blocking
// while that client's queue is full — so that a client runs at most the
// queue ahead of the gather, the rest waiting in the backend. It reports
// false once the transport is closed.
func (b *Inbox) PostChunk(a Arrival) bool {
	select {
	case b.chunks[a.Client] <- a:
		return true
	case <-b.cfg.Done:
		return false
	}
}

// EncodeFrame encodes m into a frame from tensor's byte pool: an
// in-process upload, which its server decodes and hands back through
// PostFrame. enc is the caller's kept encoder; it keeps nothing of the
// frame.
func EncodeFrame(enc *wire.Encoder, m wire.Marshaler) []byte {
	*enc = *wire.NewEncoder(tensor.GetBytes(0))
	frame := enc.Encode(m)
	*enc = wire.Encoder{}
	return frame
}

// PostFrame decodes an EncodeFrame frame with dec — a LocalUpdate, or
// with chunk a ModelChunk of client's stream — into a pooled message,
// returns the frame to the pool, and posts the arrival. client is -1
// where the sender is unknown. It reports false once the transport is
// closed.
func (b *Inbox) PostFrame(dec *wire.Decoder, client int, chunk bool, frame []byte) bool {
	a := Arrival{Client: client, Size: len(frame)}
	dec.Reset(frame)
	if chunk {
		a.Chunk = NewChunk()
		a.Bad = a.Chunk.Unmarshal(dec)
	} else {
		a.Update = NewUpdate()
		a.Bad = a.Update.Unmarshal(dec)
	}
	tensor.PutBytes(frame)
	if chunk {
		return b.PostChunk(a)
	}
	return b.Post(a)
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
		var a Arrival
		select {
		case a = <-b.arrivals:
		case <-timer:
			return out, fmt.Errorf("%s: %d of %d updates after deadline: %w", b.cfg.Name, len(out), n, ErrRoundTimeout)
		case <-b.cfg.Done:
			return nil, fmt.Errorf("%s: %w", b.cfg.Name, errClosed)
		}
		if a.Err != nil {
			// A blocking gather has no other way to stop waiting on a
			// client that still owes an update, so it fails loudly; a
			// deadline gather lets the deadline expire instead, feeding the
			// caller's quorum machinery (forgive, bench, retry).
			if b.current(a) && timer == nil && b.ledger.Pending(a.Client) {
				return nil, a.Err
			}
			continue
		}
		u, err := b.screen(a)
		if err != nil {
			return nil, err
		}
		if !b.ledger.Admit(int(u.ClientID), u.Round) {
			ReleaseUpdate(u) // late update for a forgiven round: discard
			continue
		}
		out = append(out, u)
	}
	return out, nil
}

// current applies the Current hook to a failure.
func (b *Inbox) current(a Arrival) bool {
	return b.cfg.Current == nil || b.cfg.Current(a.Client, a.Gen)
}

// screen counts an update arrival and checks what it says about itself
// against what the transport knows: a protocol error names the sending
// slot.
func (b *Inbox) screen(a Arrival) (*wire.LocalUpdate, error) {
	b.cfg.Stats.AddRecv(a.Size)
	u, name := a.Update, b.cfg.Name
	var err error
	switch id := int(u.ClientID); {
	case a.Bad != nil:
		err = fmt.Errorf("%s: update decode from %s: %w", name, sender(a.Client), a.Bad)
	case a.Client >= 0 && id != a.Client:
		err = fmt.Errorf("%s: client %d sent an update as client %d", name, a.Client, id)
	case id >= b.cfg.Clients:
		err = fmt.Errorf("%s: update from unknown client %d, the roster has %d", name, id, b.cfg.Clients)
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

// sender names where an arrival came from, for errors.
func sender(client int) string {
	if client < 0 {
		return "an unnamed sender"
	}
	return fmt.Sprintf("client %d", client)
}

// RecvChunkFrom blocks for the next chunk of one client's stream
// (ChunkGatherer): a chunk the client streamed, or a window the backend
// cut from its upload's primal, or nil for an upload that carries none. A
// current connection failure fails the receive once every chunk that
// arrived before it is taken.
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
				return nil, a.Err
			}
			// the teardown of a connection since replaced
		case <-b.cfg.Done:
			return nil, fmt.Errorf("%s: %w while awaiting a chunk from client %d", b.cfg.Name, errClosed, client)
		}
	}
}

// take counts a chunk-side arrival and hands over its chunk.
func (b *Inbox) take(a Arrival) (*wire.ModelChunk, error) {
	b.cfg.Stats.AddRecv(a.Size)
	if a.Bad != nil {
		ReleaseChunk(a.Chunk)
		return nil, fmt.Errorf("%s: chunk decode from client %d: %w", b.cfg.Name, a.Client, a.Bad)
	}
	return a.Chunk, nil
}
