package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Fig2Options scales the Figure 2 reproduction: test accuracy under
// ε̄ ∈ {3, 5, 10, ∞} for FedAvg, ICEADMM, and IIADMM on MNIST, CIFAR-10,
// FEMNIST, and CoronaHack (12 panels). Defaults are laptop-scale; the
// paper-scale geometry (203 FEMNIST writers, T=50 rounds, full datasets)
// is reachable through the fields.
type Fig2Options struct {
	Datasets   []string  // subset of mnist, cifar10, femnist, coronahack
	Algorithms []string  // subset of fedavg, iceadmm, iiadmm
	Epsilons   []float64 // privacy budgets; +Inf = non-private
	Rounds     int       // T (paper: 50; default 8)
	LocalSteps int       // L (paper and default: 10)
	TrainSize  int       // per-dataset training samples (default 480)
	TestSize   int       // test samples (default 160)
	Clients    int       // clients for the IID datasets (paper and default: 4)
	Writers    int       // FEMNIST writers (paper: 203; default 16)
	Seed       uint64
}

func (o Fig2Options) withDefaults() Fig2Options {
	if len(o.Datasets) == 0 {
		o.Datasets = []string{"mnist", "cifar10", "femnist", "coronahack"}
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = []string{core.AlgoFedAvg, core.AlgoICEADMM, core.AlgoIIADMM}
	}
	if len(o.Epsilons) == 0 {
		o.Epsilons = []float64{3, 5, 10, math.Inf(1)}
	}
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.LocalSteps == 0 {
		o.LocalSteps = 10
	}
	if o.TrainSize == 0 {
		o.TrainSize = 480
	}
	if o.TestSize == 0 {
		o.TestSize = 160
	}
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.Writers == 0 {
		o.Writers = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Fig2Point is one curve of one panel: a (dataset, algorithm, ε̄) cell with
// its accuracy trajectory.
type Fig2Point struct {
	Dataset   string
	Algorithm string
	Epsilon   float64
	AccByRnd  []float64
	FinalAcc  float64
}

// buildFederation materializes the named dataset at the configured scale.
func buildFederation(name string, o Fig2Options) (*dataset.Federated, nn.Factory, error) {
	mk := func(train, test *dataset.InMemory, cfg nn.CNNConfig) (*dataset.Federated, nn.Factory) {
		shards := dataset.PartitionIID(train, o.Clients, rng.New(o.Seed+77))
		fed := &dataset.Federated{Clients: shards, Test: test}
		factory := func() nn.Module { return nn.NewCNN(cfg, rng.New(o.Seed+123)) }
		return fed, factory
	}
	// Laptop-scale CNN widths; the architecture (2 conv, maxpool, ReLU,
	// 2 linear) matches Section IV-A.
	switch name {
	case "mnist":
		train, test := dataset.MNIST(dataset.SynthConfig{Train: o.TrainSize, Test: o.TestSize, Seed: o.Seed})
		fed, f := mk(train, test, nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32})
		return fed, f, nil
	case "cifar10":
		train, test := dataset.CIFAR10(dataset.SynthConfig{Train: o.TrainSize, Test: o.TestSize, Seed: o.Seed})
		fed, f := mk(train, test, nn.CNNConfig{InChannels: 3, Height: 32, Width: 32, Classes: 10, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32})
		return fed, f, nil
	case "coronahack":
		train, test := dataset.CoronaHack(dataset.SynthConfig{Train: o.TrainSize, Test: o.TestSize, Seed: o.Seed})
		fed, f := mk(train, test, nn.CNNConfig{InChannels: 1, Height: 64, Width: 64, Classes: 3, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32})
		return fed, f, nil
	case "femnist":
		spw := o.TrainSize / o.Writers
		if spw < 4 {
			spw = 4
		}
		fed := dataset.FEMNIST(dataset.FEMNISTConfig{
			Writers:          o.Writers,
			SamplesPerWriter: spw,
			SynthConfig:      dataset.SynthConfig{Test: o.TestSize, Seed: o.Seed},
		})
		cfg := nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 62, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32}
		factory := func() nn.Module { return nn.NewCNN(cfg, rng.New(o.Seed+123)) }
		return fed, factory, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// Fig2 runs the privacy/utility sweep and returns one point per panel
// curve plus a rendered summary table matching the paper's panel layout.
func Fig2(o Fig2Options) ([]Fig2Point, *metrics.Table, error) {
	o = o.withDefaults()
	var points []Fig2Point
	table := metrics.NewTable(
		"Figure 2: test accuracy under varying privacy budgets",
		"dataset", "algorithm", "epsilon", "final accuracy",
	)
	for _, ds := range o.Datasets {
		fed, factory, err := buildFederation(ds, o)
		if err != nil {
			return nil, nil, err
		}
		for _, algo := range o.Algorithms {
			for _, eps := range o.Epsilons {
				cfg := core.Config{
					Algorithm:  algo,
					Rounds:     o.Rounds,
					LocalSteps: o.LocalSteps,
					BatchSize:  64, // "each batch ... at most 64 data points"
					Pipeline:   core.LaplacePipeline(eps),
					Seed:       o.Seed,
				}
				res, err := core.Run(cfg, fed, factory, core.RunOptions{})
				if err != nil {
					return nil, nil, fmt.Errorf("fig2 %s/%s/eps=%v: %w", ds, algo, eps, err)
				}
				accs := make([]float64, len(res.Rounds))
				for i, r := range res.Rounds {
					accs[i] = r.TestAcc
				}
				p := Fig2Point{Dataset: ds, Algorithm: algo, Epsilon: eps, AccByRnd: accs, FinalAcc: res.FinalAcc}
				points = append(points, p)
				table.AddRow(ds, algo, epsString(eps), fmt.Sprintf("%.4f", res.FinalAcc))
			}
		}
	}
	return points, table, nil
}

func epsString(eps float64) string {
	if math.IsInf(eps, 1) {
		return "inf"
	}
	return fmt.Sprintf("%g", eps)
}
