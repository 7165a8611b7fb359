package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Injector resolves a Plan over a concrete federation and wraps transports
// so the scripted faults actually happen. It holds only the resolved,
// immutable schedule: every WrapClient/WrapServer call derives fresh RNG
// streams from the seed, so one Injector can drive any number of runs and
// each replays identically.
type Injector struct {
	numClients int
	seed       uint64
	plan       *Plan

	crashAt  []int // round at which client i goes silent (0 = never)
	rejoinAt []int // lease round at which it returns (0 = permanent crash)
	dropP    []float64
	delay    []time.Duration
	jit      []time.Duration
	reorderP float64

	serverKills []ServerKill
}

// ServerKill schedules one ungraceful server death: the process dies at
// Round and is restarted from its journal after Gap rounds of downtime.
// The runner derives its in-process kill schedule from these.
type ServerKill struct {
	Round int // 1-based round at which the server dies
	Gap   int // rounds of downtime before the restart (0 = immediate)
}

// NewInjector resolves plan over numClients clients. Percentage selectors
// pick their clients here, deterministically in seed; when several
// crash/rejoin events hit one client, the earliest round wins (a client
// only fails once). The plan may be nil or empty for a fault-free
// injector.
func NewInjector(plan *Plan, numClients int, seed uint64) (*Injector, error) {
	if numClients <= 0 {
		return nil, fmt.Errorf("%w: injector needs at least one client, got %d", ErrPlan, numClients)
	}
	inj := &Injector{
		numClients: numClients,
		seed:       seed,
		plan:       plan,
		crashAt:    make([]int, numClients),
		rejoinAt:   make([]int, numClients),
		dropP:      make([]float64, numClients),
		delay:      make([]time.Duration, numClients),
		jit:        make([]time.Duration, numClients),
	}
	if plan == nil {
		return inj, nil
	}
	for i, ev := range plan.Events {
		switch ev.Kind {
		case KindReorder:
			if inj.reorderP < ev.Prob {
				inj.reorderP = ev.Prob
			}
			continue
		case KindKillServer:
			inj.serverKills = append(inj.serverKills, ServerKill{Round: ev.Round, Gap: ev.Gap})
			continue
		}
		ids, err := ev.Who.expand(numClients, seed, i)
		if err != nil {
			return nil, err
		}
		for _, c := range ids {
			switch ev.Kind {
			case KindCrash:
				if inj.crashAt[c] == 0 || ev.Round < inj.crashAt[c] {
					inj.crashAt[c] = ev.Round
					inj.rejoinAt[c] = 0
				}
			case KindRejoin:
				if inj.crashAt[c] == 0 || ev.Round < inj.crashAt[c] {
					inj.crashAt[c] = ev.Round
					inj.rejoinAt[c] = ev.Round + ev.Gap
				}
			case KindDrop:
				if inj.dropP[c] < ev.Prob {
					inj.dropP[c] = ev.Prob
				}
			case KindDelay:
				if inj.delay[c] < ev.Delay {
					inj.delay[c] = ev.Delay
					inj.jit[c] = ev.Jit
				}
			}
		}
	}
	return inj, nil
}

// MustInjector is NewInjector for callers with a statically valid plan.
func MustInjector(plan *Plan, numClients int, seed uint64) *Injector {
	inj, err := NewInjector(plan, numClients, seed)
	if err != nil {
		panic(err)
	}
	return inj
}

// ServerKills returns the scripted server deaths in round order — the
// runner turns them into its in-process kill-and-recover schedule.
func (inj *Injector) ServerKills() []ServerKill {
	out := append([]ServerKill(nil), inj.serverKills...)
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// Crashes reports the clients scheduled to crash or disconnect, with their
// trigger rounds — what a test asserts the scheduler recovered from.
func (inj *Injector) Crashes() map[int]int {
	out := map[int]int{}
	for c, r := range inj.crashAt {
		if r > 0 {
			out[c] = r
		}
	}
	return out
}

// clientStream derives the deterministic RNG stream of client c's faults.
func (inj *Injector) clientStream(c int) *rng.RNG {
	return rng.New(inj.seed ^ (uint64(c)+2)*0x9e3779b97f4a7c15)
}

// WrapClient wraps client c's transport with its scripted faults. Safe to
// call once per run per client; each call starts a fresh deterministic
// fault stream.
func (inj *Injector) WrapClient(c int, ct comm.ClientTransport) comm.ClientTransport {
	if c < 0 || c >= inj.numClients {
		panic(fmt.Sprintf("faults: wrapping unknown client %d", c))
	}
	return &clientTransport{
		inner:    ct,
		id:       c,
		crashAt:  inj.crashAt[c],
		rejoinAt: inj.rejoinAt[c],
		dropP:    inj.dropP[c],
		delay:    inj.delay[c],
		jit:      inj.jit[c],
		r:        inj.clientStream(c),
	}
}

// WrapServer wraps the server transport with the plan's server-side
// faults (batch reorder). Pass-through when the plan has none.
func (inj *Injector) WrapServer(st comm.ServerTransport) comm.ServerTransport {
	if inj.reorderP == 0 {
		return st
	}
	return &serverTransport{
		ServerTransport: st,
		p:               inj.reorderP,
		r:               rng.New(inj.seed ^ 0xa0761d6478bd642f),
	}
}

// clientTransport executes the per-client fault script around the real
// transport. The crash and rejoin behaviors live entirely inside
// RecvGlobal: a crashed client parks here draining models in silence (so
// transport queues never back up) until its lease expires or the run
// ends, exactly like a dead device that keeps being addressed.
type clientTransport struct {
	inner    comm.ClientTransport
	id       int
	crashAt  int
	rejoinAt int
	dropP    float64
	delay    time.Duration
	jit      time.Duration
	r        *rng.RNG

	dead bool
}

// RecvGlobal receives the next model, executing crash/goodbye/rejoin
// transitions scripted for this client.
func (t *clientTransport) RecvGlobal() (*wire.GlobalModel, error) {
	for {
		m, err := t.inner.RecvGlobal()
		if err != nil || m.Final {
			return m, err
		}
		round := int(m.Round)
		if t.dead {
			if t.rejoinAt > 0 && round >= t.rejoinAt {
				// Lease expired: live again, and disarm the trigger so the
				// client doesn't re-crash on its next model.
				t.dead = false
				t.crashAt, t.rejoinAt = 0, 0
				return m, nil
			}
			continue // dead: drain and ignore
		}
		if t.crashAt > 0 && round >= t.crashAt {
			t.dead = true
			if t.rejoinAt > 0 {
				// Graceful departure: answer the obligation with a goodbye
				// leasing the rejoin round, then (where the transport
				// supports it) actually drop and resume the connection.
				if err := t.inner.SendUpdate(wire.Goodbye(uint32(t.id), m.Round, uint32(t.rejoinAt))); err != nil {
					return nil, err
				}
				if rc, ok := t.inner.(comm.SessionResumer); ok {
					if err := rc.Resume(); err != nil {
						return nil, fmt.Errorf("faults: client %d resume: %w", t.id, err)
					}
				}
			}
			continue
		}
		return m, nil
	}
}

// SendUpdate uploads the update, subject to the scripted delay and
// transient-loss faults. RNG draws happen in a fixed order (drop decision,
// then jitter) so the stream is identical across runs.
func (t *clientTransport) SendUpdate(m *wire.LocalUpdate) error {
	if t.dead {
		return nil // a dead client's upload goes nowhere
	}
	if t.dropP > 0 && t.r.Float64() < t.dropP {
		return nil // lost in transit
	}
	if t.delay > 0 || t.jit > 0 {
		d := t.delay
		if t.jit > 0 {
			d += time.Duration(t.r.Float64() * float64(t.jit))
		}
		time.Sleep(d)
	}
	return t.inner.SendUpdate(m)
}

// ReceiveInto lends w to the inner transport.
func (t *clientTransport) ReceiveInto(w []float64) { t.inner.ReceiveInto(w) }

// Stats returns the inner transport's traffic snapshot.
func (t *clientTransport) Stats() comm.Snapshot { return t.inner.Stats() }

// Close closes the inner transport.
func (t *clientTransport) Close() error { return t.inner.Close() }

// serverTransport permutes arrival-ordered batches — the message-reorder
// fault. Cohort-ordered gathers (GatherFrom) re-sort by client anyway, so
// only the arrival-ordered paths are touched.
type serverTransport struct {
	comm.ServerTransport
	p float64

	mu sync.Mutex
	r  *rng.RNG
}

// GatherAny collects n updates and maybe permutes them.
func (s *serverTransport) GatherAny(n int) ([]*wire.LocalUpdate, error) {
	batch, err := s.ServerTransport.GatherAny(n)
	s.maybeReorder(batch)
	return batch, err
}

// GatherUntil collects up to n updates and maybe permutes the batch; the
// permutation draw happens whether or not the deadline cut the gather
// short, keeping the RNG stream aligned across runs.
func (s *serverTransport) GatherUntil(n int, timeout time.Duration) ([]*wire.LocalUpdate, error) {
	batch, err := s.ServerTransport.GatherUntil(n, timeout)
	s.maybeReorder(batch)
	return batch, err
}

// maybeReorder applies a seeded Fisher-Yates shuffle with probability p.
func (s *serverTransport) maybeReorder(batch []*wire.LocalUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.r.Float64() >= s.p || len(batch) < 2 {
		return
	}
	for i := len(batch) - 1; i > 0; i-- {
		j := s.r.Intn(i + 1)
		batch[i], batch[j] = batch[j], batch[i]
	}
}

// Interface conformance checks.
var (
	_ comm.ClientTransport = (*clientTransport)(nil)
	_ comm.ServerTransport = (*serverTransport)(nil)
)

// Quiet reports whether the injector scripts no faults at all — used by
// callers that want to skip wrapping entirely.
func (inj *Injector) Quiet() bool {
	if inj.reorderP > 0 {
		return false
	}
	for c := 0; c < inj.numClients; c++ {
		if inj.crashAt[c] != 0 || inj.dropP[c] != 0 || inj.delay[c] != 0 || inj.jit[c] != 0 {
			return false
		}
	}
	return true
}
