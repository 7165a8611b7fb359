package comm

import (
	"fmt"
	"sort"
	"sync"
)

// Ledger is the per-client update-obligation book shared by the server
// transports. Every non-final model dispatched to a client opens one
// obligation tagged with the model's round; the client's reply for that
// round settles it. Forgiveness (after a round timeout or a goodbye that
// never got its data) closes the obligation and remembers the round, so a
// straggler's late update for a forgiven round is swallowed on arrival
// instead of polluting a later gather — while a genuinely lost message
// leaves no trace that could swallow a future legitimate update.
type Ledger struct {
	mu       sync.Mutex
	pending  []bool
	expect   []uint32
	forgiven []map[uint32]bool
	nOwed    int
}

// NewLedger builds a ledger over n clients.
func NewLedger(n int) *Ledger {
	return &Ledger{
		pending:  make([]bool, n),
		expect:   make([]uint32, n),
		forgiven: make([]map[uint32]bool, n),
	}
}

// Open registers an obligation for every listed client, created by
// dispatching the round's model, or none: a client with an obligation
// already open is a protocol error (one model, one reply) that leaves the
// ledger untouched.
func (l *Ledger) Open(clients []int, round uint32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range clients {
		if l.pending[c] {
			return fmt.Errorf("client %d already owes an update", c)
		}
	}
	for _, c := range clients {
		l.pending[c] = true
		l.expect[c] = round
		l.nOwed++
	}
	return nil
}

// Rollback withdraws an obligation whose model never actually left (a send
// failure), keeping the book consistent for callers that recover.
func (l *Ledger) Rollback(c int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending[c] {
		l.pending[c] = false
		l.nOwed--
	}
}

// Admit decides what to do with an arrived update from client c for the
// given round: true settles the matching obligation (or tolerates a
// spontaneous arrival, which attribution-level checks handle downstream);
// false means the update belongs to a forgiven round and must be
// discarded.
func (l *Ledger) Admit(c int, round uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.forgiven[c]; f != nil && f[round] {
		delete(f, round)
		return false
	}
	if l.pending[c] {
		l.pending[c] = false
		l.nOwed--
	}
	return true
}

// Forgive closes the open obligations of the listed clients, remembering
// each forgiven round so a late arrival for it is swallowed. Clients with
// nothing open are ignored.
func (l *Ledger) Forgive(clients []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range clients {
		if c < 0 || c >= len(l.pending) || !l.pending[c] {
			continue
		}
		l.pending[c] = false
		l.nOwed--
		if l.forgiven[c] == nil {
			l.forgiven[c] = make(map[uint32]bool)
		}
		l.forgiven[c][l.expect[c]] = true
	}
}

// Owed returns the number of open obligations.
func (l *Ledger) Owed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nOwed
}

// Outstanding returns the sorted clients with open obligations.
func (l *Ledger) Outstanding() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for c, p := range l.pending {
		if p {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// Pending reports whether client c has an open obligation.
func (l *Ledger) Pending(c int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return c >= 0 && c < len(l.pending) && l.pending[c]
}
