package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// liveEvent is one observation of a run: a replica built by the factory,
// a batch admitted to the fold, the server's validation pass, or a
// dispatch of the server's model.
type liveEvent struct {
	kind  string   // "build", "fold", "eval" or "send"
	addr  *float64 // first element of the evaluated or dispatched vector
	alloc uint64   // bytes the process had allocated (fold and send)
}

type liveLog struct {
	mu     sync.Mutex
	events []liveEvent
}

func (l *liveLog) add(kind string, addr *float64) {
	var ms runtime.MemStats
	if kind == "fold" || kind == "send" {
		runtime.ReadMemStats(&ms)
	}
	l.mu.Lock()
	l.events = append(l.events, liveEvent{kind, addr, ms.TotalAlloc})
	l.mu.Unlock()
}

// Acquire makes the log the run's admission gate, which marks where each
// batch's decode and fold begin.
func (l *liveLog) Acquire(int) func() {
	l.add("fold", nil)
	return func() {}
}

// evalProbe heads every replica of the test's factory. A parameter-free
// identity layer, it records the replica's parameter vector whenever the
// replica runs the server's validation pass: one batch of the whole test
// set, a size no training batch has.
type evalProbe struct {
	owner *nn.Sequential
	testN int
	log   *liveLog
}

func (p *evalProbe) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dim(0) == p.testN {
		p.log.add("eval", &nn.ParamVector(p.owner)[0])
	}
	return x
}

func (p *evalProbe) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }
func (p *evalProbe) Params() []*nn.Parameter                   { return nil }

// sendLog records the model vector of every dispatch (a dense downlink
// carries the aggregator's live GlobalWeights).
type sendLog struct {
	comm.ServerTransport
	log *liveLog
}

func (s *sendLog) SendTo(ids []int, m *wire.GlobalModel) error {
	s.log.add("send", &m.Weights[0])
	return s.ServerTransport.SendTo(ids, m)
}

// TestServerEvaluatesTheLiveModel: the server holds its model once. Its
// aggregator's GlobalWeights is the evaluation replica's own parameter
// vector, so every vector the server evaluates is one it dispatches, and a
// warmed evaluated round allocates no model-sized buffer — for FedAvg,
// ICEADMM, IIADMM and the buffered rule, under RunWithTransport and under
// Serve with RunClient clients. A scripted kill, in each window, discards
// the replica with the aggregator: the new incarnation builds a fresh one
// from the factory, as a restarted process does, the same holds for it,
// and the run is bit-identical to the kill-free run.
func TestServerEvaluatesTheLiveModel(t *testing.T) {
	const testN, rounds, killRound = 24, 6, 2
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
	for _, c := range []struct {
		name    string
		cfg     Config
		clients int
		kills   bool
	}{
		{"fedavg", Config{Algorithm: AlgoFedAvg}, 2, true},
		{"iceadmm", Config{Algorithm: AlgoICEADMM}, 2, false},
		{"iiadmm", Config{Algorithm: AlgoIIADMM}, 2, false},
		// One client: a buffered release folds in arrival order, which only
		// a single client makes deterministic.
		{"buffered", Config{Algorithm: AlgoFedAvg, Scheduler: SchedBuffered, BufferK: 1}, 1, true},
	} {
		cfg := c.cfg
		cfg.Rounds, cfg.LocalSteps, cfg.BatchSize, cfg.Seed = rounds, 1, 8, 5
		cfg = cfg.WithDefaults()
		fed := &dataset.Federated{Test: images(testN, 1)}
		for i := 0; i < c.clients; i++ {
			fed.Clients = append(fed.Clients, images(32, uint64(10+i)))
		}
		kills := []*ServerKill{nil}
		if c.kills {
			for w := KillWindow(0); w < numKillWindows; w++ {
				kills = append(kills, &ServerKill{Round: killRound, Window: w})
			}
		}
		for _, serve := range []bool{false, true} {
			var base *Result
			var baseFinal []float64
			for _, kill := range kills {
				name := fmt.Sprintf("%s serve=%v", c.name, serve)
				log := &liveLog{}
				opts := RunOptions{Gate: log}
				if kill != nil {
					name += " kill " + kill.Window.String()
					opts.Journal = soakJournal(t)
					opts.Kills = []ServerKill{*kill}
				}
				mlp := func() nn.Module { return nn.NewMLP(16, []int{2048}, 4, rng.New(3)) }
				factory := func() nn.Module {
					p := &evalProbe{testN: testN, log: log}
					p.owner = nn.NewSequential(p, mlp())
					log.add("build", nil)
					return p.owner
				}
				dim := nn.NumParams(mlp())
				res, final := runLive(t, name, cfg, fed, factory, opts, dim, serve, log)
				checkLiveEvents(t, name, log.events, 8*dim, rounds)
				builds := 0
				for _, e := range log.events {
					if e.kind == "build" {
						builds++
					}
				}
				if want := 1 + c.clients + len(opts.Kills); builds != want {
					t.Fatalf("%s: the factory built %d replicas, want %d (the server's, one per client, one per kill)", name, builds, want)
				}
				if kill == nil {
					base, baseFinal = res, final
					continue
				}
				if res.Soak.Kills != 1 {
					t.Fatalf("%s: %d kills landed, want 1", name, res.Soak.Kills)
				}
				for i, rs := range res.Rounds {
					if b := base.Rounds[i]; math.Float64bits(rs.TestLoss) != math.Float64bits(b.TestLoss) {
						t.Fatalf("%s: round %d loss %v, kill-free run %v", name, rs.Round, rs.TestLoss, b.TestLoss)
					}
				}
				if serve {
					requireBitEqual(t, name+" final model", baseFinal, final)
				}
			}
		}
	}
}

// runLive runs one federation, over RunWithTransport or over Serve with
// one RunClient loop per client, with every dispatch logged.
func runLive(t *testing.T, name string, cfg Config, fed *dataset.Federated, factory nn.Factory, opts RunOptions,
	dim int, serve bool, log *liveLog) (*Result, []float64) {
	t.Helper()
	st, cts, err := newServerTransport(TransportMPI, fed.NumClients(), dim, cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	logged := &sendLog{ServerTransport: st, log: log}
	if !serve {
		res, err := RunWithTransport(cfg, fed, factory, opts, logged, cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, nil
	}
	errs := make([]error, len(cts))
	var wg sync.WaitGroup
	for i, ct := range cts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ct.Close()
			errs[i] = RunClient(cfg, i, fed.Clients[i], factory, ct, ClientOptions{})
		}()
	}
	res, final, err := Serve(cfg, fed, factory, opts, logged)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: client %d: %v", name, i, err)
		}
	}
	return res, final
}

// checkLiveEvents holds a run's log to the one-vector server: every round
// was evaluated, every evaluated vector is one the server dispatched (the
// aggregator's GlobalWeights), and from the start of a warmed round's fold
// to the next dispatch — the fold, the commit, the evaluation and the next
// round's opening, with every client waiting for the model — the process
// allocates less than half a model vector. A round is warmed when its
// incarnation folded before it with no replica built since; the last
// incarnation, the one after a kill, must have two or more.
func checkLiveEvents(t *testing.T, name string, events []liveEvent, vector, rounds int) {
	t.Helper()
	sent := map[*float64]bool{}
	for _, e := range events {
		if e.kind == "send" {
			sent[e.addr] = true
		}
	}
	evals, folds, warmed := 0, 0, 0
	var fold *liveEvent
	for i := range events {
		switch e := &events[i]; e.kind {
		case "build":
			folds, warmed, fold = 0, 0, nil
		case "fold":
			folds++
			fold = e
		case "eval":
			evals++
			if !sent[e.addr] {
				t.Fatalf("%s: evaluation %d read a vector the server never dispatched: a copy of its model", name, evals)
			}
		case "send":
			if fold != nil && folds > 1 {
				warmed++
				if d := e.alloc - fold.alloc; d > uint64(vector/2) && !testutil.RaceEnabled {
					t.Fatalf("%s: fold %d to the next dispatch allocated %d bytes; one model-sized vector is %d",
						name, folds, d, vector)
				}
			}
			fold = nil
		}
	}
	if evals != rounds || warmed < 2 {
		t.Fatalf("%s: %d evaluations, want one per round (%d); the last incarnation measured %d warmed rounds, want 2 or more",
			name, evals, rounds, warmed)
	}
}
