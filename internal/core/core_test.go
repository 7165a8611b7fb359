package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/wire"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Algorithm != AlgoIIADMM || c.Rounds != 10 || c.LocalSteps != 10 || c.BatchSize != 64 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Rho != 2 || c.Zeta != 14 {
		t.Fatalf("IADMM defaults wrong: %+v", c)
	}
	if math.Abs(c.LR-1.0/16.0) > 1e-15 {
		t.Fatalf("LR default %v, want 1/(rho+zeta)", c.LR)
	}
	if c.Pipeline != DefaultPipeline {
		t.Fatalf("pipeline default %q, want %q", c.Pipeline, DefaultPipeline)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Algorithm: "nope"},
		{Algorithm: AlgoFedAvg, Rounds: -1},
		{Algorithm: AlgoFedAvg, Momentum: 1.0},
		{Algorithm: AlgoIIADMM, Rho: -1},
		{Algorithm: AlgoIIADMM, Pipeline: "clip:1,laplace:-3"},
	}
	for i, c := range bad {
		c = c.WithDefaults()
		// Re-break the field that WithDefaults may have fixed.
		switch i {
		case 0:
			c.Algorithm = "nope"
		case 1:
			c.Rounds = -1
		case 2:
			c.Momentum = 1.0
		case 3:
			c.Rho = -1
		case 4:
			c.Pipeline = "clip:1,laplace:-3"
		}
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestCommunicatesDual(t *testing.T) {
	if (Config{Algorithm: AlgoICEADMM}).CommunicatesDual() != true {
		t.Fatal("ICEADMM must communicate duals")
	}
	if (Config{Algorithm: AlgoIIADMM}).CommunicatesDual() {
		t.Fatal("IIADMM must not communicate duals")
	}
	if (Config{Algorithm: AlgoFedAvg}).CommunicatesDual() {
		t.Fatal("FedAvg must not communicate duals")
	}
}

func upd(id int, n uint64, primal, dual []float64) *wire.LocalUpdate {
	return &wire.LocalUpdate{ClientID: uint32(id), NumSamples: n, Primal: primal, Dual: dual}
}

func TestFedAvgServerWeightedAverage(t *testing.T) {
	s := NewFedAvgServer([]float64{0, 0}, 2)
	// Client 0 has 3x the samples of client 1.
	err := s.Aggregate([]*wire.LocalUpdate{
		upd(0, 300, []float64{1, 2}, nil),
		upd(1, 100, []float64{5, 6}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := s.GlobalWeights()
	if math.Abs(w[0]-2) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Fatalf("weighted average %v, want [2 3]", w)
	}
}

func TestFedAvgServerRejectsBadBatches(t *testing.T) {
	s := NewFedAvgServer([]float64{0}, 2)
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 1, []float64{1}, nil), nil}); err == nil {
		t.Fatal("nil update accepted")
	}
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 1, []float64{1, 2}, nil), upd(1, 1, []float64{1}, nil)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestFedAvgServerZeroSampleRoundIsNoop(t *testing.T) {
	s := NewFedAvgServer([]float64{7}, 2)
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 0, []float64{1}, nil), upd(1, 0, []float64{2}, nil)}); err != nil {
		t.Fatal(err)
	}
	if s.GlobalWeights()[0] != 7 {
		t.Fatal("all-skip round must leave the model unchanged")
	}
}

func TestFedAvgServerIgnoresZeroWeightEchoes(t *testing.T) {
	s := NewFedAvgServer([]float64{0}, 2)
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 100, []float64{4}, nil), upd(1, 0, []float64{-999}, nil)}); err != nil {
		t.Fatal(err)
	}
	if s.GlobalWeights()[0] != 4 {
		t.Fatalf("echo update contaminated the average: %v", s.GlobalWeights())
	}
}

func TestAdaptiveRhoRequiresIADMM(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg, AdaptiveRho: true}.WithDefaults()
	if err := cfg.Validate(); err == nil {
		t.Fatal("FedAvg with AdaptiveRho accepted")
	}
}

// TestAdaptiveRhoKeepsDualMirrorExact re-runs the mirror-consistency
// invariant with the adaptive-penalty controller active: the broadcast ρ
// must keep server and client duals bit-identical even as ρ changes.
func TestAdaptiveRhoKeepsDualMirrorExact(t *testing.T) {
	cfg := Config{Algorithm: AlgoIIADMM, Rounds: 1, LocalSteps: 1, BatchSize: 16, AdaptiveRho: true, Seed: 2}.WithDefaults()
	fed := tinyFed(t, 2, 64, 16)
	factory := tinyFactory()
	ref := factory()
	w0 := nn.FlattenParams(ref, nil)

	agg, err := NewAggregator(cfg, w0, 2)
	if err != nil {
		t.Fatal(err)
	}
	server := agg.(*IIADMMServer)
	// Make the controller eager so rho actually moves during the test.
	server.Adaptive.Mu = 1.01

	clients := make([]*IIADMMClient, 2)
	master := rng.New(2)
	for i := range clients {
		m := factory()
		nn.SetParams(m, w0)
		cr := master.Split()
		clients[i] = NewIIADMMClient(i, m, fed.Clients[i], cfg, testPipe(t, cfg, cr), cr)
	}
	rhoSeen := map[float64]bool{}
	for round := 1; round <= 4; round++ {
		rho := server.CurrentRho()
		rhoSeen[rho] = true
		w := append([]float64(nil), server.GlobalWeights()...)
		ups := make([]*wire.LocalUpdate, 2)
		for i, c := range clients {
			c.SetRho(rho)
			u, err := c.LocalUpdate(round, w)
			if err != nil {
				t.Fatal(err)
			}
			ups[i] = u
		}
		if err := server.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
		for i, c := range clients {
			sd, cd := server.Dual(i), c.Lambda()
			for j := range sd {
				if sd[j] != cd[j] {
					t.Fatalf("round %d client %d: adaptive-rho broke the dual mirror at %d", round, i, j)
				}
			}
		}
	}
	if len(rhoSeen) < 2 {
		t.Fatal("adaptive controller never changed rho; test exercised nothing")
	}
}

func TestAdaptiveRhoEndToEndRun(t *testing.T) {
	fed := tinyFed(t, 2, 128, 32)
	cfg := Config{Algorithm: AlgoICEADMM, Rounds: 3, LocalSteps: 1, BatchSize: 64, AdaptiveRho: true, Seed: 8}
	res, err := Run(cfg, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
}

func TestICEADMMServerClosedForm(t *testing.T) {
	rho := 2.0
	s := NewICEADMMServer([]float64{0}, 2, rho)
	err := s.Aggregate([]*wire.LocalUpdate{
		upd(0, 1, []float64{4}, []float64{2}),  // z - λ/ρ = 4 - 1 = 3
		upd(1, 1, []float64{2}, []float64{-2}), // 2 + 1 = 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.GlobalWeights()[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("w = %v, want 3", got)
	}
}

// TestADMMServersRequireTheWholeFederation: the ADMM servers keep one dual
// per client, so a batch that does not cover every client is refused
// before anything folds.
func TestADMMServersRequireTheWholeFederation(t *testing.T) {
	short := []*wire.LocalUpdate{upd(0, 1, []float64{1}, []float64{0})}
	for name, s := range map[string]Aggregator{
		"iceadmm": NewICEADMMServer([]float64{5}, 2, 1),
		"iiadmm":  NewIIADMMServer([]float64{5}, 2, 1),
	} {
		if err := s.Aggregate(short); err == nil {
			t.Fatalf("%s accepted 1 update for 2 clients", name)
		}
		if s.Version() != 0 || s.GlobalWeights()[0] != 5 {
			t.Fatalf("%s: the refused batch moved the model", name)
		}
	}
}

func TestICEADMMServerRequiresDual(t *testing.T) {
	s := NewICEADMMServer([]float64{0}, 1, 1)
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 1, []float64{1}, nil)}); err == nil {
		t.Fatal("missing dual accepted")
	}
}

func TestIIADMMServerDualMirrorAndGlobalUpdate(t *testing.T) {
	rho := 2.0
	w0 := []float64{1}
	s := NewIIADMMServer(w0, 2, rho)
	// Round 1: w = 1, clients upload z = 3 and z = -1.
	err := s.Aggregate([]*wire.LocalUpdate{
		upd(0, 1, []float64{3}, nil),
		upd(1, 1, []float64{-1}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dual update (line 6): λ_p = 0 + ρ(w − z_p) → λ0 = 2(1−3) = −4, λ1 = 2(1+1) = 4.
	if got := s.Dual(0)[0]; got != -4 {
		t.Fatalf("dual0 = %v, want -4", got)
	}
	if got := s.Dual(1)[0]; got != 4 {
		t.Fatalf("dual1 = %v, want 4", got)
	}
	// Global update (line 3): w = ½[(3 − (−4)/2) + (−1 − 4/2)] = ½[5 + (−3)] = 1.
	if got := s.GlobalWeights()[0]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("w = %v, want 1", got)
	}
}

// tinyFed builds a small learnable federated problem.
func tinyFed(t *testing.T, clients, trainN, testN int) *dataset.Federated {
	t.Helper()
	train, test := dataset.MNIST(dataset.SynthConfig{Train: trainN, Test: testN, Seed: 7})
	shards := dataset.PartitionIID(train, clients, rng.New(3))
	return &dataset.Federated{Clients: shards, Test: test}
}

func tinyFactory() nn.Factory {
	return func() nn.Module {
		return nn.NewMLP(28*28, []int{16}, 10, rng.New(99))
	}
}

// TestIIADMMDualMirrorConsistencyUnderDP is the invariant that justifies
// dropping dual communication: after every round, the server's mirror λ_p
// must equal the client's λ_p bit-for-bit, even with Laplace noise on.
func TestIIADMMDualMirrorConsistencyUnderDP(t *testing.T) {
	cfg := Config{Algorithm: AlgoIIADMM, Rounds: 1, LocalSteps: 2, BatchSize: 16, Pipeline: "clip:1,laplace:5"}.WithDefaults()
	fed := tinyFed(t, 2, 64, 16)
	factory := tinyFactory()
	ref := factory()
	w0 := nn.FlattenParams(ref, nil)

	server := NewIIADMMServer(w0, 2, cfg.Rho)
	clients := make([]*IIADMMClient, 2)
	master := rng.New(1)
	for i := range clients {
		m := factory()
		nn.SetParams(m, w0)
		cr := master.Split()
		clients[i] = NewIIADMMClient(i, m, fed.Clients[i], cfg, testPipe(t, cfg, cr), cr)
	}
	for round := 1; round <= 3; round++ {
		w := append([]float64(nil), server.GlobalWeights()...)
		ups := make([]*wire.LocalUpdate, 2)
		for i, c := range clients {
			u, err := c.LocalUpdate(round, w)
			if err != nil {
				t.Fatal(err)
			}
			ups[i] = u
		}
		if err := server.Aggregate(ups); err != nil {
			t.Fatal(err)
		}
		for i, c := range clients {
			sd, cd := server.Dual(i), c.Lambda()
			for j := range sd {
				if sd[j] != cd[j] {
					t.Fatalf("round %d client %d: dual mirror diverged at %d: server %v client %v", round, i, j, sd[j], cd[j])
				}
			}
		}
	}
}

// TestFedAvgEqualsICEADMMSpecialCase verifies the paper's claim that FedAvg
// is the λt=0, ζt=0, ρt=1/η special case of the IADMM family (Section
// III-A): with one client, one full-batch local step per round, frozen
// duals, no momentum, no clipping pressure, and no noise, the two clients
// generate identical primal sequences.
func TestFedAvgEqualsICEADMMSpecialCase(t *testing.T) {
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 32, Test: 8, Seed: 5})
	eta := 0.05
	base := Config{
		Rounds:     1,
		LocalSteps: 1,
		BatchSize:  1000,       // full batch
		Pipeline:   "clip:1e9", // clipping never binds
		Momentum:   0,          // plain SGD
		Seed:       1,
	}
	fa := base
	fa.Algorithm = AlgoFedAvg
	fa.LR = eta
	fa.Momentum = 0
	ice := base
	ice.Algorithm = AlgoICEADMM
	ice.Rho = 1 / eta
	ice.Zeta = 1e-12 // Validate requires ζ >= 0; effectively zero
	ice.FreezeDual = true

	factory := tinyFactory()
	mA := factory()
	mB := factory()
	w0 := nn.FlattenParams(mA, nil)
	nn.SetParams(mB, w0)

	ca := NewFedAvgClient(0, mA, train, fa, testPipe(t, fa, nil), rng.New(2))
	cb := NewICEADMMClient(0, mB, train, ice, w0, testPipe(t, ice, nil), rng.New(2))

	w := append([]float64(nil), w0...)
	for round := 1; round <= 4; round++ {
		ua, err := ca.LocalUpdate(round, w)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := cb.LocalUpdate(round, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ua.Primal {
			if math.Abs(ua.Primal[i]-ub.Primal[i]) > 1e-8 {
				t.Fatalf("round %d: primal diverged at %d: fedavg %v iceadmm %v", round, i, ua.Primal[i], ub.Primal[i])
			}
		}
		// Next round's w: single client, FedAvg server = its primal.
		copy(w, ua.Primal)
	}
}

// TestIIADMMSingleStepClosedForm checks line 16 of Algorithm 1 directly:
// with L=1, one batch, λ=0, the new iterate is w − g(w)/(ρ+ζ) where g is
// the clipped batch gradient at w.
func TestIIADMMSingleStepClosedForm(t *testing.T) {
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 16, Test: 8, Seed: 11})
	cfg := Config{
		Algorithm:  AlgoIIADMM,
		Rounds:     1,
		LocalSteps: 1,
		BatchSize:  1000,
		Rho:        2,
		Zeta:       6,
		Pipeline:   "clip:1e9",
		Seed:       1,
	}.WithDefaults()
	factory := tinyFactory()
	m := factory()
	w0 := nn.FlattenParams(m, nil)

	// Reference gradient at w0 over the full dataset (deterministic batch).
	ref := factory()
	nn.SetParams(ref, w0)
	all := dataset.Collate(train, seq(train.Len()))
	logits := ref.Forward(all.X)
	_, d := nn.CrossEntropy(logits, all.Labels)
	ref.Backward(d)
	g := nn.FlattenGrads(ref, nil)

	c := NewIIADMMClient(0, m, train, cfg, testPipe(t, cfg, nil), rng.New(4))
	u, err := c.LocalUpdate(1, w0)
	if err != nil {
		t.Fatal(err)
	}
	step := 1.0 / (cfg.Rho + cfg.Zeta)
	for i := range w0 {
		want := w0[i] - step*g[i] // z starts at w so the ρ(w−z) term is zero
		if math.Abs(u.Primal[i]-want) > 1e-9 {
			t.Fatalf("closed-form mismatch at %d: got %v want %v", i, u.Primal[i], want)
		}
	}
}

// TestFedAvgMomentumMatchesHandComputation: FedAvg's local solver is
// v ← μv + g, z ← z − lr·v from v = 0. The batch is the whole dataset, so
// each step's gradient is the full gradient at z (up to the loader's
// sample order, hence the tolerance).
func TestFedAvgMomentumMatchesHandComputation(t *testing.T) {
	checkFedAvgMomentum(t, []int{3})
}

// TestFedAvgMomentumRestartsEachRound: velocity restarts from 0 at the
// start of every round — what a previous round left behind is never read —
// and a round of one step is plain z ← w − lr·g.
func TestFedAvgMomentumRestartsEachRound(t *testing.T) {
	checkFedAvgMomentum(t, []int{3, 1, 2, 3})
}

// checkFedAvgMomentum runs one FedAvg client through rounds of the given
// step counts and compares each round's update with the momentum step
// computed by hand from v = 0.
func checkFedAvgMomentum(t *testing.T, rounds []int) {
	t.Helper()
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 12, Test: 4, Seed: 5})
	cfg := Config{Algorithm: AlgoFedAvg, LocalSteps: 3, BatchSize: 1000, LR: 0.05, Momentum: 0.9, Pipeline: "clip:1e9", Seed: 1}.WithDefaults()
	factory := tinyFactory()
	w := nn.FlattenParams(factory(), nil)
	ref := factory()
	all := dataset.Collate(train, seq(train.Len()))
	c := NewFedAvgClient(0, factory(), train, cfg, testPipe(t, cfg, nil), rng.New(4))
	for round, steps := range rounds {
		c.L = steps
		z := slices.Clone(w)
		v := make([]float64, len(z))
		for s := 0; s < steps; s++ {
			nn.SetParams(ref, z)
			_, d := nn.CrossEntropy(ref.Forward(all.X), all.Labels)
			nn.BackwardParams(ref, d)
			for i, g := range nn.GradVector(ref) {
				v[i] = cfg.Momentum*v[i] + g
				z[i] -= cfg.LR * v[i]
			}
		}
		u, err := c.LocalUpdate(round+1, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range z {
			if math.Abs(u.Primal[i]-z[i]) > 1e-12 {
				t.Fatalf("round %d (%d steps), coordinate %d: got %v, by hand %v", round+1, steps, i, u.Primal[i], z[i])
			}
		}
		w = slices.Clone(u.Primal)
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestEvaluateZeroModelUniformLogits(t *testing.T) {
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 64, Test: 8, Seed: 13})
	m := nn.NewLinearModel(28*28, 10, rng.New(1))
	// Zero all parameters: logits uniform, argmax = class 0.
	zero := make([]float64, nn.NumParams(m))
	loss, acc := EvaluateWeights(m, zero, train, 32)
	if math.Abs(loss-math.Log(10)) > 1e-9 {
		t.Fatalf("uniform loss %v, want ln10", loss)
	}
	class0 := 0
	for i := 0; i < train.Len(); i++ {
		if _, y := train.Sample(i); y == 0 {
			class0++
		}
	}
	want := float64(class0) / float64(train.Len())
	if math.Abs(acc-want) > 1e-12 {
		t.Fatalf("accuracy %v, want class-0 frequency %v", acc, want)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	m := nn.NewLinearModel(4, 2, rng.New(1))
	empty := dataset.NewInMemory(tensor.New(0, 1, 2, 2), []int{}, 2)
	loss, acc := Evaluate(m, empty, 8)
	if loss != 0 || acc != 0 {
		t.Fatal("empty dataset must evaluate to zeros")
	}
}

func TestRunIntegrationAllAlgorithms(t *testing.T) {
	fed := tinyFed(t, 4, 320, 120)
	for _, algo := range []string{AlgoFedAvg, AlgoICEADMM, AlgoIIADMM} {
		cfg := Config{Algorithm: algo, Rounds: 4, LocalSteps: 2, BatchSize: 32, Seed: 3}
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Rounds) != 4 {
			t.Fatalf("%s: %d rounds recorded", algo, len(res.Rounds))
		}
		if res.FinalAcc < 0.2 { // chance is 0.1
			t.Fatalf("%s: final accuracy %.3f did not beat chance meaningfully", algo, res.FinalAcc)
		}
		if res.UploadsB == 0 || res.DownloadsB == 0 {
			t.Fatalf("%s: traffic accounting empty: %+v", algo, res)
		}
	}
}

// TestCommunicationVolumeRatio verifies the headline claim: ICEADMM's
// client→server traffic is ~2× IIADMM's for the same model and rounds.
func TestCommunicationVolumeRatio(t *testing.T) {
	fed := tinyFed(t, 2, 64, 16)
	run := func(algo string) uint64 {
		cfg := Config{Algorithm: algo, Rounds: 2, LocalSteps: 1, BatchSize: 64, Seed: 3}
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.UploadsB
	}
	ice := run(AlgoICEADMM)
	iia := run(AlgoIIADMM)
	ratio := float64(ice) / float64(iia)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("ICEADMM/IIADMM upload ratio %v, want ~2", ratio)
	}
	fa := run(AlgoFedAvg)
	if fa != iia {
		t.Fatalf("FedAvg and IIADMM should upload identical volume: %d vs %d", fa, iia)
	}
}

func TestRunDeterminism(t *testing.T) {
	fed := tinyFed(t, 2, 96, 32)
	cfg := Config{Algorithm: AlgoIIADMM, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 42, Pipeline: "clip:1,laplace:10"}
	a, err := Run(cfg, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, fed, tinyFactory(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
		t.Fatalf("same seed, different results: %v/%v vs %v/%v", a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
	}
}

func TestRunOverPubSubTransport(t *testing.T) {
	fed := tinyFed(t, 3, 120, 30)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5}
	res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: TransportPubSub})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
}

func TestRunRejectsUnknownTransport(t *testing.T) {
	fed := tinyFed(t, 2, 32, 8)
	_, err := Run(Config{Algorithm: AlgoFedAvg}, fed, tinyFactory(), RunOptions{Transport: "carrier-pigeon"})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestRunRejectsEmptyFederation(t *testing.T) {
	_, err := Run(Config{}, &dataset.Federated{}, tinyFactory(), RunOptions{})
	if err == nil {
		t.Fatal("empty federation accepted")
	}
}

// TestDPNoiseDegradesAccuracy reproduces the qualitative privacy/utility
// trade-off of Fig. 2: very strong privacy (tiny ε̄) must hurt accuracy
// relative to the non-private run.
func TestDPNoiseDegradesAccuracy(t *testing.T) {
	fed := tinyFed(t, 2, 320, 120)
	run := func(eps float64) float64 {
		cfg := Config{Algorithm: AlgoIIADMM, Rounds: 4, LocalSteps: 2, BatchSize: 32, Seed: 3, Pipeline: LaplacePipeline(eps)}
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAcc
	}
	private := run(0.05) // extremely noisy
	open := run(math.Inf(1))
	if open-private < 0.1 {
		t.Fatalf("eps=0.05 accuracy %.3f not clearly below non-private %.3f", private, open)
	}
}

// TestObjectivePerturbationMode verifies the Chaudhuri-style alternative:
// noise enters through the objective (a constant vector added to every
// gradient) and the release carries no output noise, yet differs from the
// noise-free trajectory.
func TestObjectivePerturbationMode(t *testing.T) {
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 64, Test: 16, Seed: 21})
	mk := func(mode string, eps float64) []float64 {
		cfg := Config{
			Algorithm:  AlgoIIADMM,
			Rounds:     1,
			LocalSteps: 1,
			BatchSize:  64,
			DPMode:     mode,
			Seed:       1,
		}.WithDefaults()
		cfg.Pipeline = LaplacePipeline(eps)
		factory := tinyFactory()
		m := factory()
		w0 := nn.FlattenParams(m, nil)
		c := NewIIADMMClient(0, m, train, cfg, testPipe(t, cfg, rng.New(55)), rng.New(44))
		u, err := c.LocalUpdate(1, w0)
		if err != nil {
			t.Fatal(err)
		}
		return u.Primal
	}
	clean := mk(DPModeObjective, math.Inf(1))
	objective := mk(DPModeObjective, 1.0)
	output := mk(DPModeOutput, 1.0)
	diff := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	if diff(clean, objective) == 0 {
		t.Fatal("objective perturbation had no effect on the trajectory")
	}
	if diff(clean, output) == 0 {
		t.Fatal("output perturbation had no effect")
	}
	// With a single proximal step, objective noise passes through the
	// 1/(ρ+ζ) contraction while output noise lands at full scale, so the
	// objective-perturbed release must sit closer to the clean one — the
	// accuracy advantage [27] proves for the convex regime.
	if diff(clean, objective) >= diff(clean, output) {
		t.Fatalf("objective noise (%v) should distort less than output noise (%v)",
			diff(clean, objective), diff(clean, output))
	}
}

func TestDPModeValidation(t *testing.T) {
	cfg := Config{DPMode: "subgradient"}.WithDefaults()
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown DPMode accepted")
	}
}

// TestRunOverRPCTransport runs the full simulation over loopback TCP: the
// gRPC-substitute path of Section IV-D, end to end through core.Run.
func TestRunOverRPCTransport(t *testing.T) {
	fed := tinyFed(t, 3, 120, 30)
	cfg := Config{Algorithm: AlgoIIADMM, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 12}
	res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: TransportRPC})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds %d", len(res.Rounds))
	}
	if res.UploadsB == 0 || res.DownloadsB == 0 {
		t.Fatalf("rpc traffic accounting empty: %+v", res)
	}
}

// TestTransportsAgreeOnResult trains the identical configuration over all
// three backends; the learning outcome must be transport-invariant.
func TestTransportsAgreeOnResult(t *testing.T) {
	fed := tinyFed(t, 2, 96, 32)
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 13}
	accs := map[Transport]float64{}
	for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
		res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		accs[tr] = res.FinalAcc
	}
	if accs[TransportMPI] != accs[TransportPubSub] || accs[TransportMPI] != accs[TransportRPC] {
		t.Fatalf("transports disagree on the result: %v", accs)
	}
}

// testPipe builds the client update pipeline for cfg. r seeds the
// randomized stages (nil is fine for stacks without noise/quantization).
func testPipe(t testing.TB, cfg Config, r *rng.RNG) *pipeline.Pipeline {
	t.Helper()
	p, err := NewClientPipeline(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
