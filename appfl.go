// Package appfl is a Go reproduction of APPFL, the Argonne
// Privacy-Preserving Federated Learning framework (Ryu, Kim, Kim, Madduri;
// IPDPS 2022 workshops, arXiv:2202.03672).
//
// The package is the public facade over the internal implementation. It
// exposes the five plug-and-play component families of the APPFL
// architecture:
//
//   - FL algorithms: FedAvg, ICEADMM, and the paper's communication-
//     efficient IIADMM (Algorithm 1), plus the asynchronous-aggregation and
//     adaptive-penalty extensions from the paper's future-work list.
//   - Differential privacy: Laplace output perturbation with per-algorithm
//     automatic sensitivity, gradient clipping, and a Gaussian mechanism.
//   - Update pipeline: an ordered, composable stack of privacy and
//     compression stages every client release passes through
//     (Config.Pipeline, e.g. "clip:1.0,laplace:0.5,topk:0.1"); the server
//     applies the inverse stack before aggregation. Compression encodings
//     (sparse top-k, stochastic quantization, float16) cut upload bytes
//     4–8x on the real transports.
//   - Communication: an in-process MPI-style world, TCP RPC (the gRPC
//     substitute, also usable across machines via cmd/appfl-server and
//     cmd/appfl-client), and an MQTT-style pub/sub broker.
//   - Models: a torch.nn-style layer library with the paper's CNN.
//   - Data: PyTorch-style datasets and loaders with synthetic MNIST,
//     CIFAR-10, FEMNIST (203-writer non-IID), and CoronaHack corpora.
//
// Quick start:
//
//	fed := appfl.MNISTFederation(4, 2000, 500, 1)
//	factory := appfl.CNNFactory(appfl.CNNConfig{
//		InChannels: 1, Height: 28, Width: 28, Classes: 10,
//		Conv1: 4, Conv2: 8, Hidden: 32,
//	}, 1)
//	res, err := appfl.Run(appfl.Config{
//		Algorithm: appfl.AlgoIIADMM,
//		Rounds:    10,
//		Pipeline:  "clip:1,laplace:10", // ε̄-DP; "" = non-private "clip:1"
//	}, fed, factory, appfl.RunOptions{})
package appfl

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Re-exported configuration and result types.
type (
	// Config describes one federated run (algorithm, rounds, privacy, ...).
	Config = core.Config
	// RunOptions selects transport, validation cadence, and parallelism.
	RunOptions = core.RunOptions
	// Result carries per-round statistics and traffic accounting.
	Result = core.Result
	// RoundStats is one communication round of a Result.
	RoundStats = core.RoundStats
	// Federated is a client-partitioned dataset with a shared test set.
	Federated = dataset.Federated
	// CNNConfig shapes the paper's two-conv CNN.
	CNNConfig = nn.CNNConfig
	// Module is the neural-network interface clients train.
	Module = nn.Module
	// Factory builds fresh model replicas for server and clients.
	Factory = nn.Factory
)

// Algorithm identifiers.
const (
	AlgoFedAvg  = core.AlgoFedAvg
	AlgoICEADMM = core.AlgoICEADMM
	AlgoIIADMM  = core.AlgoIIADMM
)

// Scheduler identifiers for Config.Scheduler: the participation policy is
// orthogonal to the algorithm. SchedSyncAll barriers on every client each
// round; SchedSampled schedules a pseudorandom cohort per round (true
// partial participation); SchedBuffered releases an aggregation as soon
// as Config.BufferK updates arrive, FedBuff-style.
const (
	SchedSyncAll  = core.SchedSyncAll
	SchedSampled  = core.SchedSampled
	SchedBuffered = core.SchedBuffered
)

// Transports for RunOptions.Transport.
const (
	TransportMPI    = core.TransportMPI
	TransportPubSub = core.TransportPubSub
	TransportRPC    = core.TransportRPC
)

// Run executes a federated simulation under the configured scheduler and
// aggregator; see core.Run.
func Run(cfg Config, fed *Federated, factory Factory, opts RunOptions) (*Result, error) {
	return core.Run(cfg, fed, factory, opts)
}

// FaultInjector is the deterministic chaos layer: it wraps a run's
// transports and executes a scripted fault plan (see ParseFaultPlan).
// Install one via RunOptions.Faults and set Config.RoundTimeout so the
// scheduler survives what the injector throws at it.
type FaultInjector = faults.Injector

// ErrQuorum reports a round that could not assemble Config.MinCohort
// survivors.
var ErrQuorum = core.ErrQuorum

// ParseFaultPlan parses a fault-plan spec such as
//
//	"crash:20%@3,drop:0:0.3,delay:1:10:5,rejoin:2@2+3,reorder"
//
// and resolves it into an injector over numClients clients. Every random
// choice (which clients a percentage picks, which uploads drop, jitter,
// reorder) derives from seed, so the same plan and seed replay the same
// failure story bit for bit. See faults.Parse for the grammar.
func ParseFaultPlan(spec string, numClients int, seed uint64) (*FaultInjector, error) {
	p, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	return faults.NewInjector(p, numClients, seed)
}

// CNNFactory returns a Factory producing the paper's CNN with deterministic
// initialization from seed.
func CNNFactory(cfg CNNConfig, seed uint64) Factory {
	return func() Module { return nn.NewCNN(cfg, rng.New(seed)) }
}

// MLPFactory returns a Factory producing a small multilayer perceptron over
// flattened inputs, useful for fast experimentation.
func MLPFactory(in int, hidden []int, classes int, seed uint64) Factory {
	return func() Module { return nn.NewMLP(in, hidden, classes, rng.New(seed)) }
}

// MNISTFederation builds a synthetic-MNIST federation: train samples split
// IID over the given number of clients, as in the paper's Section IV-A.
func MNISTFederation(clients, train, test int, seed uint64) *Federated {
	tr, te := dataset.MNIST(dataset.SynthConfig{Train: train, Test: test, Seed: seed})
	return &Federated{
		Clients: dataset.PartitionIID(tr, clients, rng.New(seed+1)),
		Test:    te,
	}
}

// CIFAR10Federation builds a synthetic-CIFAR-10 federation split IID.
func CIFAR10Federation(clients, train, test int, seed uint64) *Federated {
	tr, te := dataset.CIFAR10(dataset.SynthConfig{Train: train, Test: test, Seed: seed})
	return &Federated{
		Clients: dataset.PartitionIID(tr, clients, rng.New(seed+1)),
		Test:    te,
	}
}

// CoronaHackFederation builds a synthetic chest-X-ray federation split IID.
func CoronaHackFederation(clients, train, test int, seed uint64) *Federated {
	tr, te := dataset.CoronaHack(dataset.SynthConfig{Train: train, Test: test, Seed: seed})
	return &Federated{
		Clients: dataset.PartitionIID(tr, clients, rng.New(seed+1)),
		Test:    te,
	}
}

// FEMNISTFederation builds the naturally non-IID FEMNIST federation: one
// client per writer (the paper uses 203 writers).
func FEMNISTFederation(writers, samplesPerWriter, test int, seed uint64) *Federated {
	return dataset.FEMNIST(dataset.FEMNISTConfig{
		Writers:          writers,
		SamplesPerWriter: samplesPerWriter,
		SynthConfig:      dataset.SynthConfig{Test: test, Seed: seed},
	})
}
