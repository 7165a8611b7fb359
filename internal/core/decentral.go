package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// This file implements the decentralized extension the paper lists as
// future work (Section V, item 1): "decentralized privacy-preserving
// algorithms that allow the neighboring communication without the central
// server". Clients sit on an undirected graph; each round they train
// locally, release a (optionally Laplace-perturbed) model to their
// neighbors, and average with Metropolis–Hastings weights — the standard
// decentralized SGD/gossip scheme, whose mixing matrix is doubly
// stochastic and therefore drives the network to consensus.

// Topology is an undirected communication graph over clients. Neighbors
// must be symmetric and must not contain self-loops.
type Topology struct {
	Neighbors [][]int
}

// Ring returns the cycle topology over n clients.
func Ring(n int) Topology {
	nb := make([][]int, n)
	for i := 0; i < n; i++ {
		if n == 1 {
			continue
		}
		prev := (i - 1 + n) % n
		next := (i + 1) % n
		if prev == next { // n == 2
			nb[i] = []int{next}
		} else {
			nb[i] = []int{prev, next}
		}
	}
	return Topology{Neighbors: nb}
}

// Complete returns the fully connected topology over n clients.
func Complete(n int) Topology {
	nb := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				nb[i] = append(nb[i], j)
			}
		}
	}
	return Topology{Neighbors: nb}
}

// Validate checks symmetry, index range, and absence of self-loops.
func (t Topology) Validate() error {
	n := len(t.Neighbors)
	has := func(p, q int) bool {
		for _, x := range t.Neighbors[p] {
			if x == q {
				return true
			}
		}
		return false
	}
	for p, list := range t.Neighbors {
		for _, q := range list {
			if q < 0 || q >= n {
				return fmt.Errorf("core: topology edge %d-%d out of range", p, q)
			}
			if q == p {
				return fmt.Errorf("core: topology has self-loop at %d", p)
			}
			if !has(q, p) {
				return fmt.Errorf("core: topology edge %d→%d not symmetric", p, q)
			}
		}
	}
	return nil
}

// MetropolisWeights returns the mixing matrix row for every client:
// weights[p][q] for q a neighbor of p, plus weights[p][p] as the self
// weight. The matrix is symmetric and doubly stochastic.
func MetropolisWeights(t Topology) [][]float64 {
	n := len(t.Neighbors)
	w := make([][]float64, n)
	deg := make([]int, n)
	for p := range t.Neighbors {
		deg[p] = len(t.Neighbors[p])
	}
	for p := 0; p < n; p++ {
		w[p] = make([]float64, n)
		sum := 0.0
		for _, q := range t.Neighbors[p] {
			d := deg[p]
			if deg[q] > d {
				d = deg[q]
			}
			w[p][q] = 1.0 / float64(d+1)
			sum += w[p][q]
		}
		w[p][p] = 1 - sum
	}
	return w
}

// DecentralRoundStats records one round of a decentralized run.
type DecentralRoundStats struct {
	Round int
	// MeanTestAcc is the average test accuracy across client models.
	MeanTestAcc float64
	// Consensus is the mean distance of client models from their average;
	// gossip mixing must drive it toward zero.
	Consensus float64
}

// DecentralResult aggregates a decentralized run.
type DecentralResult struct {
	Rounds   []DecentralRoundStats
	FinalAcc float64
}

// RunDecentralized executes serverless federated learning on the given
// topology. Each round every client performs cfg.LocalSteps epochs of
// local SGD (FedAvg-style), releases its model to its neighbors through
// cfg.Pipeline — noised when the stack has a noise stage — and mixes with
// Metropolis weights. Only FedAvg-style local training is supported; the
// IADMM algorithms assume a central aggregator.
func RunDecentralized(cfg Config, fed *dataset.Federated, factory nn.Factory, topo Topology) (*DecentralResult, error) {
	cfg = cfg.WithDefaults()
	if cfg.Algorithm != AlgoFedAvg {
		return nil, fmt.Errorf("core: decentralized mode supports fedavg local training, got %q", cfg.Algorithm)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	P := fed.NumClients()
	if P == 0 {
		return nil, fmt.Errorf("core: no clients in federated dataset")
	}
	if len(topo.Neighbors) != P {
		return nil, fmt.Errorf("core: topology covers %d clients, federation has %d", len(topo.Neighbors), P)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	weights := MetropolisWeights(topo)

	master := rng.New(cfg.Seed)
	// Peers invert each other's compressed releases with the shared
	// inverse-only pipeline (stateless and deterministic, so one suffices).
	invPipe, err := NewServerPipeline(cfg)
	if err != nil {
		return nil, err
	}
	clients := make([]*FedAvgClient, P)
	bases := make([]*BaseClient, P)
	states := make([][]float64, P) // x_p, each client's current model
	for i := 0; i < P; i++ {
		cr := master.Split()
		pipe, err := NewClientPipeline(cfg, cr)
		if err != nil {
			return nil, err
		}
		// LocalUpdate copies states[i] into the client's parameters before
		// training. The factory initializes deterministically, so every
		// state starts at the same w0: the client's initial parameters.
		clients[i] = NewFedAvgClient(i, factory(), fed.Clients[i], cfg, pipe, cr)
		bases[i] = &clients[i].BaseClient
		states[i] = slices.Clone(clients[i].params)
	}
	dim := len(states[0])
	// The nodes train on a pool of GOMAXPROCS slots, which then evaluate
	// every node's state in turn.
	slots, err := newSlotPool(bases, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}

	res := &DecentralResult{}
	released := make([][]float64, P)
	// decoded[p] is what node p's compressed releases densify into, kept
	// across rounds; a dense release is the node's own vector instead.
	decoded := make([][]float64, P)
	mean := make([]float64, dim) // consensusDistance's, kept across rounds
	for t := 1; t <= cfg.Rounds; t++ {
		// Local training + DP release, in parallel.
		var wg sync.WaitGroup
		errs := make([]error, P)
		for p := 0; p < P; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				up, err := trainOnSlot(clients[p], t, states[p], slots)
				if err != nil {
					errs[p] = err
					return
				}
				// Each peer applies the server half of the pipeline to what
				// it receives (Invert is stateless, so sharing one is safe).
				// Workers=1: the peers already decode concurrently, one
				// goroutine each; nested fan-out would only contend.
				compressed := up.PrimalP != nil
				if compressed {
					up.Primal = decoded[p]
				}
				if derr := DecodeUpdates([]*wire.LocalUpdate{up}, invPipe, dim, 1); derr != nil {
					errs[p] = derr
					return
				}
				if compressed {
					decoded[p] = up.Primal
				}
				released[p] = up.Primal
			}(p)
		}
		wg.Wait()
		for p, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: decentralized client %d: %w", p, err)
			}
		}
		// Gossip mixing: x_p ← w_pp·z_p + Σ_q w_pq·z̃_q. A client mixes its
		// own *unperturbed* release only through released[p] to keep every
		// exchanged quantity privatized uniformly. The mix reads only the
		// releases, and LocalUpdate has copied x_p into the client's
		// parameters, so x_p is written over states[p] in place.
		for p := 0; p < P; p++ {
			x := states[p]
			for i := 0; i < dim; i++ {
				x[i] = weights[p][p] * released[p][i]
			}
			for _, q := range topo.Neighbors[p] {
				wq := weights[p][q]
				zq := released[q]
				for i := 0; i < dim; i++ {
					x[i] += wq * zq[i]
				}
			}
		}

		// Round statistics.
		stats := DecentralRoundStats{Round: t}
		if fed.Test != nil {
			// Every slot is back in the pool: one evaluates each node's
			// state where it lies. The gradient vector it is bound with is
			// the node's client's, which a forward pass does not touch.
			s := <-slots
			accSum := 0.0
			for p := 0; p < P; p++ {
				s.model.Bind(states[p], clients[p].grads)
				_, acc := Evaluate(s.model, fed.Test, 256)
				accSum += acc
			}
			slots <- s
			stats.MeanTestAcc = accSum / float64(P)
		}
		stats.Consensus = consensusDistance(states, mean)
		res.Rounds = append(res.Rounds, stats)
	}
	if n := len(res.Rounds); n > 0 {
		res.FinalAcc = res.Rounds[n-1].MeanTestAcc
	}
	return res, nil
}

// consensusDistance returns the mean Euclidean distance of the states from
// their average, which it computes in mean (len(mean) == len(states[i])).
func consensusDistance(states [][]float64, mean []float64) float64 {
	p := len(states)
	if p == 0 {
		return 0
	}
	clear(mean)
	for _, s := range states {
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(p)
	}
	total := 0.0
	for _, s := range states {
		d := 0.0
		for i, v := range s {
			diff := v - mean[i]
			d += diff * diff
		}
		total += math.Sqrt(d)
	}
	return total / float64(p)
}
