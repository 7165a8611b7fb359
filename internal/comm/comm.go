// Package comm defines the communication abstraction of the APPFL
// architecture (Section II-A.3): the server and clients exchange the global
// model and local updates through a pluggable transport. Three backends
// implement it — comm/mpi (in-process ranks standing in for MPI+RDMA),
// comm/rpc (TCP remote procedure calls standing in for gRPC), and
// comm/pubsub (a topic broker standing in for the paper's planned MQTT
// support). All three carry the same wire frames and count their bytes
// and messages, so experiments compare algorithms and transports by true
// communication volume.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrRoundTimeout reports that a deadline-aware gather hit its deadline
// before every awaited update arrived. The partial batch returned alongside
// it is valid: callers implementing quorum semantics aggregate the
// survivors and Forgive the rest.
var ErrRoundTimeout = errors.New("comm: round deadline exceeded")

// ServerTransport is the server's side of the protocol. A barrier round
// is one SendTo to the cohort followed by one GatherFrom of the same
// cohort (comm.AllClients for full participation); the buffered
// semi-asynchronous scheduler consumes arrivals one batch at a time
// through GatherAny, and deadline-driven rounds through GatherUntil.
// Broadcast delivers the final model to everyone.
//
// Every non-final model delivered to a client obliges exactly one
// LocalUpdate in return. Every transport keeps that obligation per client
// in the one receive side they share (Inbox), so they apply the same
// rules: a duplicate dispatch, an update from a client outside the
// awaited set, an update whose ClientID is off the roster, or not its
// sender's where the transport knows the sender (an rpc connection, an
// mpi rank; a pub/sub update topic is shared), or whose TenantID is not
// the transport's is a protocol error, and a gather asking for more than
// is outstanding fails fast.
type ServerTransport interface {
	// Broadcast delivers the global model to every client.
	Broadcast(m *wire.GlobalModel) error
	// SendTo delivers the global model to the listed clients only. The
	// model is serialized before SendTo returns.
	SendTo(clients []int, m *wire.GlobalModel) error
	// GatherFrom collects exactly one local update from each listed client
	// and returns them ordered as listed. An update from a client not in
	// the list is an error. Updates returned by any Gather* form belong to
	// the caller until it passes them to ReleaseUpdates; never releasing
	// them is merely slower (see recycle.go).
	GatherFrom(clients []int) ([]*wire.LocalUpdate, error)
	// GatherAny blocks until n of the currently outstanding updates have
	// arrived and returns them in arrival order — the primitive behind
	// buffered (FedBuff-style) aggregation, where a release happens as soon
	// as a quorum lands regardless of which clients supplied it.
	GatherAny(n int) ([]*wire.LocalUpdate, error)
	// GatherUntil collects up to n outstanding updates in arrival order,
	// giving up when the timeout elapses. n is clamped to the number of
	// outstanding obligations (asking with none outstanding is an error, as
	// in GatherAny); timeout <= 0 waits forever. When the deadline cuts the
	// gather short the partial batch is returned together with an error
	// wrapping ErrRoundTimeout — the batch is valid either way. This is the
	// deadline-aware receive path that keeps a barrier round from hanging
	// on a client that will never report.
	GatherUntil(n int, timeout time.Duration) ([]*wire.LocalUpdate, error)
	// Forgive cancels the open update obligations of the listed clients
	// (those that timed out or were announced dead). A forgiven client can
	// be scheduled again; if its late update for the forgiven round does
	// eventually arrive, the transport discards it instead of letting it
	// pollute a later gather. Clients without an open obligation are
	// ignored.
	Forgive(clients []int)
	// Outstanding returns the sorted client IDs with open update
	// obligations — the set a caller must Forgive (or keep waiting on)
	// when draining a faulted run.
	Outstanding() []int
	// Stats returns a snapshot of traffic counters.
	Stats() Snapshot
	// Close releases transport resources.
	Close() error
}

// SessionResumer is implemented by client transports that can drop their
// underlying connection and re-establish it, splicing the new connection
// into the same logical session (the rpc transport's reconnect path). The
// fault-injection layer uses it to make a disconnect-then-rejoin fault
// exercise a real reconnect where the transport supports one.
type SessionResumer interface {
	Resume() error
}

// Unreachables is implemented by server transports that can tell which
// clients are currently known to be unreachable (a dead connection with
// no resume yet). Deadline-driven schedulers exclude them from dispatch
// — sending would only open an obligation nothing can settle — and bench
// them through the same quorum machinery as a timeout. Connection-less
// transports simply don't implement it.
type Unreachables interface {
	Unreachable() []int
}

// ClientTransport is a client's side of the protocol.
type ClientTransport interface {
	// RecvGlobal blocks until the next global model arrives. The model may
	// be decoded into storage the transport reuses: it is valid until the
	// next RecvGlobal.
	RecvGlobal() (*wire.GlobalModel, error)
	// ReceiveInto lends w as the storage every later dense
	// GlobalModel.Weights is decoded into, while w has the capacity: the
	// model RecvGlobal returns aliases w from then on, so the lender keeps
	// nothing in w across a receive. A FedAvg client lends its gradient
	// vector, which is dead between rounds, and holds no receive buffer of
	// its own.
	ReceiveInto(w []float64)
	// SendUpdate uploads this client's local update. The update is
	// serialized (or dropped) before SendUpdate returns, so the caller may
	// reuse its storage.
	SendUpdate(m *wire.LocalUpdate) error
	// Stats returns a snapshot of traffic counters.
	Stats() Snapshot
	// Close releases transport resources.
	Close() error
}

// AllClients returns the identity cohort [0, 1, ..., n-1]: the cohort of
// full participation.
func AllClients(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// OrderByClient rearranges arrival-ordered updates into the order of the
// requested client list. It reports an error when the two sets differ —
// a duplicate, missing, or out-of-cohort update. It is the strict form of
// OrderSubset: every scheduled client must have reported.
func OrderByClient(clients []int, got []*wire.LocalUpdate) ([]*wire.LocalUpdate, error) {
	out, err := OrderSubset(clients, got)
	if err != nil {
		return nil, err
	}
	if len(out) != len(clients) {
		if m := Missing(clients, got); len(m) > 0 {
			return nil, fmt.Errorf("comm: no update from scheduled client %d", m[0])
		}
		// Fewer results than requests with nobody missing: the request
		// list itself repeated a client.
		return nil, fmt.Errorf("comm: gather requested %d updates from %d distinct clients", len(clients), len(out))
	}
	return out, nil
}

// OrderSubset rearranges arrival-ordered updates into the order of the
// requested client list, tolerating missing clients — the quorum form of
// OrderByClient used after a deadline-cut gather, where absentees are
// expected. Duplicates and out-of-cohort updates are still errors.
func OrderSubset(clients []int, got []*wire.LocalUpdate) ([]*wire.LocalUpdate, error) {
	byID := make(map[int]*wire.LocalUpdate, len(got))
	for _, u := range got {
		id := int(u.ClientID)
		if _, dup := byID[id]; dup {
			return nil, fmt.Errorf("comm: duplicate update from client %d in one gather", id)
		}
		byID[id] = u
	}
	out := make([]*wire.LocalUpdate, 0, len(got))
	for _, id := range clients {
		if u, ok := byID[id]; ok {
			out = append(out, u)
			delete(byID, id)
		}
	}
	for id := range byID {
		return nil, fmt.Errorf("comm: update from out-of-cohort client %d", id)
	}
	return out, nil
}

// Missing returns the clients in the requested list with no update in got,
// in list order — the set a quorum round times out on.
func Missing(clients []int, got []*wire.LocalUpdate) []int {
	have := make(map[int]bool, len(got))
	for _, u := range got {
		have[int(u.ClientID)] = true
	}
	var out []int
	for _, id := range clients {
		if !have[id] {
			out = append(out, id)
		}
	}
	return out
}

// Stats is a thread-safe traffic counter shared by transport endpoints.
type Stats struct {
	mu        sync.Mutex
	bytesSent uint64
	bytesRecv uint64
	msgsSent  uint64
	msgsRecv  uint64
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	BytesSent, BytesRecv uint64
	MsgsSent, MsgsRecv   uint64
}

// AddSent records an outgoing message of n bytes.
func (s *Stats) AddSent(n int) {
	s.mu.Lock()
	s.bytesSent += uint64(n)
	s.msgsSent++
	s.mu.Unlock()
}

// AddRecv records an incoming message of n bytes.
func (s *Stats) AddRecv(n int) {
	s.mu.Lock()
	s.bytesRecv += uint64(n)
	s.msgsRecv++
	s.mu.Unlock()
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		BytesSent: s.bytesSent,
		BytesRecv: s.bytesRecv,
		MsgsSent:  s.msgsSent,
		MsgsRecv:  s.msgsRecv,
	}
}
