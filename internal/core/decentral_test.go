package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/testutil"
)

func TestRingTopology(t *testing.T) {
	r := Ring(5)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, nb := range r.Neighbors {
		if len(nb) != 2 {
			t.Fatalf("ring node %d has %d neighbors", i, len(nb))
		}
	}
	// Degenerate sizes.
	if err := Ring(1).Validate(); err != nil {
		t.Fatal(err)
	}
	two := Ring(2)
	if err := two.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(two.Neighbors[0]) != 1 {
		t.Fatalf("2-ring should have single edges: %v", two.Neighbors)
	}
}

func TestCompleteTopology(t *testing.T) {
	c := Complete(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, nb := range c.Neighbors {
		if len(nb) != 3 {
			t.Fatalf("complete node %d has %d neighbors", i, len(nb))
		}
	}
}

func TestTopologyValidateRejectsBadGraphs(t *testing.T) {
	asym := Topology{Neighbors: [][]int{{1}, {}}}
	if err := asym.Validate(); err == nil {
		t.Fatal("asymmetric edge accepted")
	}
	self := Topology{Neighbors: [][]int{{0}}}
	if err := self.Validate(); err == nil {
		t.Fatal("self-loop accepted")
	}
	oob := Topology{Neighbors: [][]int{{5}}}
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

// Property: Metropolis weights are symmetric, non-negative, and doubly
// stochastic on rings of any size.
func TestMetropolisWeightsDoublyStochastic(t *testing.T) {
	f := func(rawN uint8) bool {
		n := int(rawN%12) + 3
		topo := Ring(n)
		w := MetropolisWeights(topo)
		for p := 0; p < n; p++ {
			rowSum := 0.0
			for q := 0; q < n; q++ {
				if w[p][q] < -1e-12 {
					return false
				}
				if math.Abs(w[p][q]-w[q][p]) > 1e-12 {
					return false
				}
				rowSum += w[p][q]
			}
			if math.Abs(rowSum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGossipMixingContracts: with zero local steps of useful training the
// mixing step alone must shrink the consensus distance geometrically.
// Verified directly on the weight algebra.
func TestGossipMixingContracts(t *testing.T) {
	topo := Ring(6)
	w := MetropolisWeights(topo)
	// Arbitrary divergent states in R^2.
	states := [][]float64{{1, 0}, {0, 1}, {-1, 2}, {3, -1}, {0.5, 0.5}, {-2, -2}}
	mean := make([]float64, 2)
	before := consensusDistance(states, mean)
	mix := func(s [][]float64) [][]float64 {
		n := len(s)
		out := make([][]float64, n)
		for p := 0; p < n; p++ {
			x := make([]float64, len(s[p]))
			for q := 0; q < n; q++ {
				if w[p][q] == 0 {
					continue
				}
				for i := range x {
					x[i] += w[p][q] * s[q][i]
				}
			}
			out[p] = x
		}
		return out
	}
	after := states
	for i := 0; i < 10; i++ {
		after = mix(after)
	}
	if d := consensusDistance(after, mean); d >= before*0.5 {
		t.Fatalf("10 gossip rounds did not halve consensus distance: %v -> %v", before, d)
	}
	// The mean must be preserved by a doubly stochastic mix.
	meanOf := func(s [][]float64) []float64 {
		m := make([]float64, len(s[0]))
		for _, x := range s {
			for i, v := range x {
				m[i] += v / float64(len(s))
			}
		}
		return m
	}
	m0, m1 := meanOf(states), meanOf(after)
	for i := range m0 {
		if math.Abs(m0[i]-m1[i]) > 1e-9 {
			t.Fatalf("gossip mixing moved the mean: %v vs %v", m0, m1)
		}
	}
}

func TestRunDecentralizedLearns(t *testing.T) {
	fed := tinyFed(t, 6, 360, 120)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 4, LocalSteps: 2, BatchSize: 32, Seed: 4}
	res, err := RunDecentralized(cfg, fed, tinyFactory(), Ring(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
	if res.FinalAcc < 0.2 {
		t.Fatalf("decentralized training accuracy %.3f did not beat chance", res.FinalAcc)
	}
	for _, r := range res.Rounds {
		if r.Consensus < 0 {
			t.Fatalf("negative consensus distance: %+v", r)
		}
	}
}

func TestRunDecentralizedWithDP(t *testing.T) {
	fed := tinyFed(t, 4, 128, 32)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Pipeline: "clip:1,laplace:5", Seed: 5}
	res, err := RunDecentralized(cfg, fed, tinyFactory(), Ring(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
}

func TestRunDecentralizedValidation(t *testing.T) {
	fed := tinyFed(t, 3, 48, 16)
	if _, err := RunDecentralized(Config{Algorithm: AlgoIIADMM}, fed, tinyFactory(), Ring(3)); err == nil {
		t.Fatal("IADMM decentralized accepted")
	}
	if _, err := RunDecentralized(Config{Algorithm: AlgoFedAvg}, fed, tinyFactory(), Ring(5)); err == nil {
		t.Fatal("topology size mismatch accepted")
	}
	if _, err := RunDecentralized(Config{Algorithm: AlgoFedAvg}, &dataset.Federated{Test: fed.Test}, tinyFactory(), Ring(0)); err == nil {
		t.Fatal("a federation with no clients accepted")
	}
}

// TestDecentralizedCompleteBeatsRingMixing: on a complete graph the mixing
// is one-shot averaging, so consensus after one round must be tighter than
// on a ring.
func TestDecentralizedCompleteBeatsRingMixing(t *testing.T) {
	fed := tinyFed(t, 6, 180, 30)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 1, LocalSteps: 1, BatchSize: 32, Seed: 6}
	ring, err := RunDecentralized(cfg, fed, tinyFactory(), Ring(6))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := RunDecentralized(cfg, fed, tinyFactory(), Complete(6))
	if err != nil {
		t.Fatal(err)
	}
	if complete.Rounds[0].Consensus >= ring.Rounds[0].Consensus {
		t.Fatalf("complete-graph consensus %v should beat ring %v",
			complete.Rounds[0].Consensus, ring.Rounds[0].Consensus)
	}
}

// TestDecentralRoundAllocationGate: once its first rounds have sized every
// buffer, a round of a 4-node ring over a 12,730-parameter MLP allocates
// less than one model vector (101,840 bytes) — per-round allocation is the
// difference between a 6-round and a 2-round run, over 4 — with the
// default stack and with a compressing one. The batch a client trains on
// lives in its loader, the gossip mix writes each state in place, the
// consensus mean lives in a buffer the run keeps, and so does each node's
// densified release. (With a fresh batch per training step and a fresh
// mean per round it allocated 985,598 bytes a round, 9.7 vectors; with a
// fresh densified release, 441,258 bytes under the compressing stack.)
func TestDecentralRoundAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	fed := tinyFed(t, 4, 128, 32)
	dim := nn.NumParams(tinyFactory()())
	for _, pipe := range []string{"", "clip:1,laplace:5,quantize:8"} {
		run := func(rounds int) uint64 {
			cfg := Config{Algorithm: AlgoFedAvg, Rounds: rounds, LocalSteps: 1, BatchSize: 16, Seed: 5, Pipeline: pipe}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := RunDecentralized(cfg, fed, tinyFactory(), Ring(4)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		long, short := run(6), run(2)
		perRound := (float64(long) - float64(short)) / 4
		t.Logf("pipeline %q: %.0f bytes per round; a model vector is %d bytes", pipe, perRound, 8*dim)
		if perRound >= float64(8*dim) {
			t.Errorf("pipeline %q: a warmed ring round allocates %.0f bytes, at least one %d-byte model vector", pipe, perRound, 8*dim)
		}
	}
}

// TestDecentralEvaluatesEachNodeInPlace: each node is evaluated on a
// training slot bound to its state, not through a copy into a shared
// replica, and a 6-round 4-node ring reports the accuracy and consensus
// bits it reported when it evaluated through that copy (values generated
// by the copying implementation), with the default stack and a
// compressing private one.
func TestDecentralEvaluatesEachNodeInPlace(t *testing.T) {
	fed := tinyFed(t, 4, 128, 32)
	want := map[string][][2]float64{
		"": {
			{0.1953125, 0.026702761749054515}, {0.2734375, 0.031941630049955268},
			{0.3203125, 0.034730542595142938}, {0.453125, 0.036317739758132683},
			{0.5625, 0.035803107775209377}, {0.59375, 0.036655541887427895},
		},
		"clip:1,laplace:5,quantize:8": {
			{0.1875, 1.1575014038734424}, {0.265625, 1.2245530530498905},
			{0.2109375, 1.2294548847912985}, {0.3203125, 1.227208703348281},
			{0.3359375, 1.2145869883069511}, {0.375, 1.2132030901768602},
		},
	}
	for pipe, rounds := range want {
		cfg := Config{Algorithm: AlgoFedAvg, Rounds: 6, LocalSteps: 1, BatchSize: 16, Seed: 5, Pipeline: pipe}
		res, err := RunDecentralized(cfg, fed, tinyFactory(), Ring(4))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Rounds {
			if r.MeanTestAcc != rounds[i][0] || r.Consensus != rounds[i][1] {
				t.Errorf("pipeline %q round %d: accuracy %.17g consensus %.17g, want %.17g %.17g",
					pipe, r.Round, r.MeanTestAcc, r.Consensus, rounds[i][0], rounds[i][1])
			}
		}
	}
}
