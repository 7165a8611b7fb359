package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
)

// seedTrajectories pins the per-round (TestLoss, TestAcc) float64 bit
// patterns recorded from the pre-pipeline code (PR 1 tree) for four
// representative configs. Test loss/accuracy are computed from the full
// global weight vector every round, so bit equality here certifies the
// weight trajectory itself: the pipeline — the default stack or its
// explicit spec, with or without a Laplace stage — must reproduce the old
// client/server path exactly.
var seedTrajectories = map[string][][2]uint64{
	"fedavg-nonprivate":  {{0x4003f890aa6925ae, 0x3fb0000000000000}, {0x400314240d311e76, 0x3fc0000000000000}},
	"fedavg-laplace2":    {{0x4005ac35321eb0fb, 0x3fa0000000000000}, {0x400779226b2a3fa2, 0x3fa0000000000000}},
	"iiadmm-laplace3":    {{0x4006062ff7725c99, 0x3fa0000000000000}, {0x4009c550ae31075a, 0x3fb0000000000000}},
	"iceadmm-objective3": {{0x40031cc31f6c6f09, 0x3fb8000000000000}, {0x40022efe49e2539a, 0x3fc4000000000000}},
}

// regressFederation rebuilds the exact federation the fingerprints were
// recorded on.
func regressFederation() (*dataset.Federated, nn.Factory) {
	tr, te := dataset.MNIST(dataset.SynthConfig{Train: 96, Test: 32, Seed: 5})
	fed := &dataset.Federated{
		Clients: dataset.PartitionIID(tr, 3, rng.New(5+1)),
		Test:    te,
	}
	factory := func() nn.Module { return nn.NewMLP(28*28, []int{8}, 10, rng.New(5)) }
	return fed, factory
}

func checkTrajectory(t *testing.T, name string, cfg Config) {
	t.Helper()
	want, ok := seedTrajectories[name]
	if !ok {
		t.Fatalf("no recorded trajectory %q", name)
	}
	fed, factory := regressFederation()
	res, err := Run(cfg, fed, factory, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != len(want) {
		t.Fatalf("%s: got %d rounds, recorded %d", name, len(res.Rounds), len(want))
	}
	for i, r := range res.Rounds {
		gotLoss, gotAcc := math.Float64bits(r.TestLoss), math.Float64bits(r.TestAcc)
		if gotLoss != want[i][0] || gotAcc != want[i][1] {
			t.Fatalf("%s round %d: loss/acc bits %#x/%#x, recorded %#x/%#x — trajectory diverged from the pre-pipeline seed",
				name, i+1, gotLoss, gotAcc, want[i][0], want[i][1])
		}
	}
}

// TestIdentityPipelineMatchesSeedTrajectory: with no Pipeline spec the
// default stack (clip only) must reproduce the pre-refactor non-private
// trajectory bit for bit.
func TestIdentityPipelineMatchesSeedTrajectory(t *testing.T) {
	checkTrajectory(t, "fedavg-nonprivate",
		Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5})
}

// TestExplicitClipPipelineMatchesSeedTrajectory: the explicit "clip:1"
// spec is the same stack as the default and must match too.
func TestExplicitClipPipelineMatchesSeedTrajectory(t *testing.T) {
	checkTrajectory(t, "fedavg-nonprivate",
		Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5, Pipeline: "clip:1"})
}

// TestDPPipelineMatchesSeedTrajectory: clip+laplace stacks — written out
// and built by LaplacePipeline — must reproduce the recorded DP
// trajectories exactly, including the noise stream.
func TestDPPipelineMatchesSeedTrajectory(t *testing.T) {
	checkTrajectory(t, "fedavg-laplace2",
		Config{Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5, Pipeline: "clip:1,laplace:2"})
	checkTrajectory(t, "iiadmm-laplace3",
		Config{Algorithm: AlgoIIADMM, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5, Pipeline: LaplacePipeline(3)})
	checkTrajectory(t, "iiadmm-laplace3",
		Config{Algorithm: AlgoIIADMM, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5, Pipeline: "clip:1,laplace:3"})
}

// TestObjectivePipelineMatchesSeedTrajectory: objective-perturbation mode
// routes the noise through the per-round gradient offset; it too must be
// bit-identical to the recorded seed.
func TestObjectivePipelineMatchesSeedTrajectory(t *testing.T) {
	checkTrajectory(t, "iceadmm-objective3",
		Config{Algorithm: AlgoICEADMM, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 5, Pipeline: "clip:1,laplace:3", DPMode: DPModeObjective})
}
