package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// lendProbe is a FedAvg client (its lend is promoted) that counts the
// models it trains from that lie in its own gradient vector.
type lendProbe struct {
	*FedAvgClient
	trained, inGrad int
}

func (p *lendProbe) LocalUpdate(round int, w []float64) (*wire.LocalUpdate, error) {
	p.trained++
	if len(w) > 0 && &w[0] == &p.grads[0] {
		p.inGrad++
	}
	return p.FedAvgClient.LocalUpdate(round, w)
}

// trainMeter measures what the process allocates from the return of each
// RecvGlobal to the next upload — the client's decode and training. One
// lock spans that window, so two clients' windows never overlap, and each
// upload waits at the gate until every client has closed its window of
// the round, so no window overlaps an upload either. (An upload cannot
// run under the lock: it may return only once the gather has every
// client's upload, as over pubsub, which decodes in the sending
// goroutine.)
type trainMeter struct {
	comm.ClientTransport
	mu      *sync.Mutex
	gate    *roundGate
	held    bool
	start   uint64
	windows []uint64
}

// roundGate lets the uploads of a round go once each of its n clients
// has arrived, or left.
type roundGate struct {
	mu      sync.Mutex
	n, in   int
	release chan struct{}
}

// wait blocks until every client still in the federation has called it
// this round.
func (g *roundGate) wait() {
	g.mu.Lock()
	ch := g.release
	g.in++
	g.open()
	g.mu.Unlock()
	<-ch
}

// leave takes a client whose loop has ended out of the count.
func (g *roundGate) leave() {
	g.mu.Lock()
	g.n--
	g.open()
	g.mu.Unlock()
}

// open releases the round once everybody is in; g.mu is held.
func (g *roundGate) open() {
	if g.in > 0 && g.in >= g.n {
		close(g.release)
		g.in, g.release = 0, make(chan struct{})
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (m *trainMeter) RecvGlobal() (*wire.GlobalModel, error) {
	gm, err := m.ClientTransport.RecvGlobal()
	if err == nil && !gm.Final {
		m.mu.Lock()
		m.held = true
		m.start = totalAlloc()
	}
	return gm, err
}

func (m *trainMeter) SendUpdate(u *wire.LocalUpdate) error {
	m.windows = append(m.windows, totalAlloc()-m.start)
	m.unlock()
	m.gate.wait()
	return m.ClientTransport.SendUpdate(u)
}

// unlock ends a window, also one a failed client loop left open.
func (m *trainMeter) unlock() {
	if m.held {
		m.held = false
		m.mu.Unlock()
	}
}

// TestFedAvgClientReceivesIntoItsGradient: a FedAvg client lends its
// gradient vector to the receive, so every model it trains from — a dense
// downlink the transport decodes, an f16 one the client loop densifies —
// lies in that vector, over rpc, mpi and pubsub, bare and behind the fault
// layer. A warmed client round (decode and training) allocates no
// model-sized vector, and the federation's losses and final model are bit
// for bit those of the same clients with the lend hidden: the transport's
// own receive buffer and the pooled densify scratch. All of it holds with
// the clients taking turns on one shared slot: the vector lent is the
// client's own, which no other client's training touches, also while the
// client waits for the slot.
func TestFedAvgClientReceivesIntoItsGradient(t *testing.T) {
	const clients, rounds = 2, 5
	images := func(n int, seed uint64) dataset.Dataset {
		x := tensor.New(n, 1, 4, 4)
		r := rng.New(seed)
		r.FillNormal(x.Data(), 0, 1)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(4)
		}
		return dataset.NewInMemory(x, labels, 4)
	}
	fed := &dataset.Federated{Test: images(24, 1)}
	for i := 0; i < clients; i++ {
		fed.Clients = append(fed.Clients, images(32, uint64(10+i)))
	}
	factory := func() nn.Module { return nn.NewMLP(16, []int{4096}, 4, rng.New(3)) }
	dim := nn.NumParams(factory())
	vector := uint64(8 * dim)
	for _, tr := range []Transport{TransportRPC, TransportMPI, TransportPubSub} {
		for _, plan := range []string{"", "delay:100%:1"} {
			for _, f16 := range []bool{false, true} {
				name := fmt.Sprintf("%s faults=%q f16=%v", tr, plan, f16)
				cfg := Config{Algorithm: AlgoFedAvg, Rounds: rounds, LocalSteps: 1, BatchSize: 8, Seed: 5, DownlinkF16: f16}.WithDefaults()
				var want *Result
				var wantFinal []float64
				for _, run := range []struct{ lend, shared bool }{{false, false}, {true, false}, {true, true}} {
					res, final, probes, meters := runLendFederation(t, name, cfg, fed, factory, dim, tr, plan, run.lend, run.shared)
					if !run.lend {
						want, wantFinal = res, final
						continue
					}
					name := fmt.Sprintf("%s shared slot=%v", name, run.shared)
					for i, p := range probes {
						if p.trained != rounds || p.inGrad != rounds {
							t.Fatalf("%s: client %d trained %d rounds, %d from its gradient vector; want %d of %d",
								name, i, p.trained, p.inGrad, rounds, rounds)
						}
						for r, a := range meters[i].windows {
							if r >= 2 && a > vector/2 && !testutil.RaceEnabled {
								t.Fatalf("%s: client %d's round %d allocated %d bytes from receive to upload; one model-sized vector is %d",
									name, i, r+1, a, vector)
							}
						}
					}
					for r, rs := range res.Rounds {
						if math.Float64bits(rs.TestLoss) != math.Float64bits(want.Rounds[r].TestLoss) {
							t.Fatalf("%s: round %d loss %v, with the lend hidden %v", name, rs.Round, rs.TestLoss, want.Rounds[r].TestLoss)
						}
					}
					requireBitEqual(t, name+" final model", wantFinal, final)
				}
			}
		}
	}
}

// runLendFederation runs one federation over Serve with a client loop per
// client, each client behind a trainMeter (and the plan's fault layer).
// With lend false the clients' lend is hidden from the loop; with shared
// the clients train on one slot from a pool, as in-process runs do.
func runLendFederation(t *testing.T, name string, cfg Config, fed *dataset.Federated, factory nn.Factory, dim int,
	tr Transport, plan string, lend, shared bool) (*Result, []float64, []*lendProbe, []*trainMeter) {
	t.Helper()
	P := fed.NumClients()
	st, cts, err := newServerTransport(tr, P, dim, cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var opts RunOptions
	if plan != "" {
		p, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = faults.MustInjector(p, P, 1)
	}
	master := rng.New(cfg.Seed)
	probes := make([]*lendProbe, P)
	meters := make([]*trainMeter, P)
	var window sync.Mutex
	gate := &roundGate{n: P, release: make(chan struct{})}
	errs := make([]error, P)
	bases := make([]*BaseClient, P)
	var wg sync.WaitGroup
	for i, ct := range cts {
		model := sequentialOf(factory())
		c, err := newRunClient(cfg, i, master.Split(), model, nn.ParamVector(model), fed.Clients[i])
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = &lendProbe{FedAvgClient: c.(*FedAvgClient)}
		bases[i] = &probes[i].BaseClient
		if opts.Faults != nil {
			ct = opts.Faults.WrapClient(i, ct)
		}
		meters[i] = &trainMeter{ClientTransport: ct, mu: &window, gate: gate}
	}
	var copts ClientOptions
	if shared {
		if copts.slots, err = newSlotPool(bases, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range meters {
		var alg ClientAlgorithm = probes[i]
		if !lend {
			alg = struct{ ClientAlgorithm }{probes[i]}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer m.ClientTransport.Close()
			errs[i] = runClient(cfg, alg, m, copts)
			m.unlock()
			gate.leave()
		}()
	}
	res, final, err := Serve(cfg, fed, factory, opts, st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: client %d: %v", name, i, err)
		}
	}
	return res, final, probes, meters
}
