package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// TestSharedSlotsBitIdentical: in-process clients train on a pool of
// min(MaxParallel, P) slots, each bound to a client's vectors for one
// LocalUpdate. A run whose three clients share one slot walks the
// trajectory of the run that gives each client a slot of its own, bit for
// bit — every round's test loss and accuracy, and the bytes each way —
// for FedAvg with several momentum steps a round, IIADMM and ICEADMM, on
// every transport, with the identity stack and a DP + compressed one.
func TestSharedSlotsBitIdentical(t *testing.T) {
	fed := tinyFed(t, 3, 96, 24)
	for _, algo := range []string{AlgoFedAvg, AlgoIIADMM, AlgoICEADMM} {
		for _, pipe := range []string{"", "clip:1,laplace:5,quantize:8"} {
			for _, tr := range []Transport{TransportMPI, TransportPubSub, TransportRPC} {
				name := fmt.Sprintf("%s %q %s", algo, pipe, tr)
				cfg := Config{Algorithm: algo, Rounds: 3, LocalSteps: 2, BatchSize: 16, Pipeline: pipe, Seed: 9}
				var want *Result
				for _, par := range []int{3, 1} {
					res, err := Run(cfg, fed, tinyFactory(), RunOptions{Transport: tr, MaxParallel: par})
					if err != nil {
						t.Fatalf("%s MaxParallel %d: %v", name, par, err)
					}
					if want == nil {
						want = res
						continue
					}
					for r, rs := range res.Rounds {
						w := want.Rounds[r]
						if math.Float64bits(rs.TestLoss) != math.Float64bits(w.TestLoss) || rs.TestAcc != w.TestAcc {
							t.Fatalf("%s: round %d on one slot: loss %v acc %v; on a slot each: loss %v acc %v",
								name, rs.Round, rs.TestLoss, rs.TestAcc, w.TestLoss, w.TestAcc)
						}
					}
					if res.UploadsB != want.UploadsB || res.DownloadsB != want.DownloadsB {
						t.Fatalf("%s: %d B up, %d B down on one slot; %d and %d on a slot each",
							name, res.UploadsB, res.DownloadsB, want.UploadsB, want.DownloadsB)
					}
				}
			}
		}
	}
}

// TestSharedSlotsRefuseAStatefulLayer: a training Dropout draws its masks
// from an RNG of its own, state that outlives a step, which clients that
// take turns on a slot would pass on to each other in whatever order they
// trained. Run and RunDecentralized refuse such a model; with the layer in
// evaluation mode, or at P = 0, nothing outlives a step and they run.
func TestSharedSlotsRefuseAStatefulLayer(t *testing.T) {
	fed := tinyFed(t, 2, 64, 16)
	factory := func(p float64, train bool) nn.Factory {
		return func() nn.Module {
			r := rng.New(5)
			d := nn.NewDropout(p, r)
			d.Train = train
			return nn.NewSequential(nn.NewFlatten(), nn.NewLinear(28*28, 8, r), nn.NewReLU(), d, nn.NewLinear(8, 10, r))
		}
	}
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 1, LocalSteps: 1, BatchSize: 16, Seed: 3}
	if _, err := Run(cfg, fed, factory(0.5, true), RunOptions{}); err == nil || !strings.Contains(err.Error(), "*nn.Dropout") {
		t.Fatalf("Run with a training Dropout: err %v, want a refusal naming *nn.Dropout", err)
	}
	if _, err := RunDecentralized(cfg, fed, factory(0.5, true), Ring(2)); err == nil || !strings.Contains(err.Error(), "*nn.Dropout") {
		t.Fatalf("RunDecentralized with a training Dropout: err %v, want a refusal naming *nn.Dropout", err)
	}
	for _, f := range []nn.Factory{factory(0.5, false), factory(0, true)} {
		if _, err := Run(cfg, fed, f, RunOptions{}); err != nil {
			t.Fatalf("Run with a Dropout that keeps nothing: %v", err)
		}
		if _, err := RunDecentralized(cfg, fed, f, Ring(2)); err != nil {
			t.Fatalf("RunDecentralized with a Dropout that keeps nothing: %v", err)
		}
	}
}

// TestTrainingWorkspacesScaleWithSlots is the memory gate of the slot
// pool: an in-process run holds layer workspaces for MaxParallel
// replicas, not one per client. W is what one cold CNN replica allocates
// for its workspaces over a 64-sample training step. A one-round FedAvg run
// of 8 CNN clients at MaxParallel 2 may allocate, beyond the same run of
// 2 clients, less than half a W per added client: each adds only its
// vectors, data, loader, pipeline and messages. A replica per client
// would add at least a W each.
func TestTrainingWorkspacesScaleWithSlots(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation gate: the race detector instruments allocations")
	}
	arch := nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 16, Conv2: 8, Hidden: 32}
	factory := func() nn.Module { return nn.NewCNN(arch, rng.New(1)) }
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 1, LocalSteps: 1, BatchSize: 64, Seed: 2}.WithDefaults()
	fedOf := func(p int) *dataset.Federated {
		train, _ := dataset.MNIST(dataset.SynthConfig{Train: 64 * p, Test: 1, Seed: 7})
		return &dataset.Federated{Clients: dataset.PartitionIID(train, p, rng.New(3))}
	}

	// W: a cold step minus a warm one of the same standalone client.
	one := fedOf(1)
	c := NewFedAvgClient(0, factory(), one.Clients[0], cfg, testPipe(t, cfg, rng.New(4)), rng.New(4))
	w0 := nn.FlattenParams(factory(), nil)
	step := func() {
		if _, err := c.LocalUpdate(1, w0); err != nil {
			t.Fatal(err)
		}
	}
	_, cold := testutil.AllocsPer(1, step)
	_, warm := testutil.AllocsPer(1, step)
	W := cold - warm

	run := func(p int) float64 {
		fed := fedOf(p)
		_, b := testutil.AllocsPer(1, func() {
			if _, err := Run(cfg, fed, factory, RunOptions{MaxParallel: 2}); err != nil {
				t.Fatal(err)
			}
		})
		return b
	}
	two, eight := run(2), run(8)
	perClient := (eight - two) / 6
	t.Logf("one replica's training workspaces W = %.0f B; 8 clients at MaxParallel 2 allocate %.0f B, 2 clients %.0f B: %.0f B (%.2f W) per added client",
		W, eight, two, perClient, perClient/W)
	if perClient >= W/2 {
		t.Fatalf("each client past the 2 slots adds %.0f B, %.2f of a replica's %.0f B of workspaces; want under half", perClient, perClient/W, W)
	}
}
