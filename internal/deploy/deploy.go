// Package deploy holds what appfl-server and appfl-client must agree on,
// in one place so that they cannot disagree: the workload a federation
// plan names and the mapping between a plan and a core.Config. The server
// derives the plan from its flags (or its tenants file) and hands it to
// every client in the JoinAck; a client builds everything from the plan it
// is given.
package deploy

import (
	"fmt"
	"math"

	appfl "repro"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// PlanOf is the part of the server's configuration its clients share.
// train and test size the common corpus.
func PlanOf(cfg core.Config, train, test int) wire.Plan {
	return wire.Plan{
		Algorithm: cfg.Algorithm,
		Rho:       cfg.Rho,
		Zeta:      cfg.Zeta,
		Seed:      cfg.Seed,
		Pipeline:  cfg.Pipeline,
		Chunk:     uint32(cfg.StreamChunk),
		Subset:    cfg.SubsetFrac,
		Train:     uint32(train),
		Test:      uint32(test),
	}
}

// CheckEpsilon range-checks a client's own privacy budget: 0 and +Inf
// select a non-private run, any other budget must be positive.
func CheckEpsilon(eps float64) error {
	if eps >= 0 { // false for NaN
		return nil
	}
	return fmt.Errorf("deploy: privacy budget must be positive, or 0 for a non-private run; got %v", eps)
}

// ClientConfig is the configuration a client derives from its server's
// plan and its own privacy budget eps (see CheckEpsilon). A finite budget
// composes core.LaplacePipeline(eps), "clip:1,laplace:eps", so it applies
// only over the default stack — which a plan carries as "clip:1", or as
// "" from an older server; a plan with any other stack configures the
// noise itself. What else only the client decides — LocalSteps, BatchSize
// — is the caller's to set on the result before validating it.
func ClientConfig(p wire.Plan, eps float64) (core.Config, error) {
	if p.Algorithm == "" {
		return core.Config{}, fmt.Errorf("deploy: the server's JoinAck carries no federation plan")
	}
	if err := CheckEpsilon(eps); err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Algorithm:   p.Algorithm,
		Rho:         p.Rho,
		Zeta:        p.Zeta,
		Seed:        p.Seed,
		Pipeline:    p.Pipeline,
		StreamChunk: int(p.Chunk),
		SubsetFrac:  p.Subset,
	}
	if eps == 0 || math.IsInf(eps, 1) {
		return cfg, nil
	}
	specs, err := pipeline.Parse(p.Pipeline)
	if err != nil {
		return core.Config{}, fmt.Errorf("deploy: %w", err)
	}
	if len(specs) > 0 && specs.String() != core.DefaultPipeline {
		return core.Config{}, fmt.Errorf("deploy: a client budget composes %q over the default stack, but the server's plan sets pipeline %q; set the budget there",
			core.LaplacePipeline(eps), p.Pipeline)
	}
	cfg.Pipeline = core.LaplacePipeline(eps)
	return cfg, nil
}

// Workload builds the federation a plan names: the synthetic-MNIST corpus
// split IID over the given number of clients, and the paper's CNN — data
// and initial model both derived from the plan's seed, which is how all
// parties agree on them without shipping either.
func Workload(clients int, p wire.Plan) (*appfl.Federated, appfl.Factory) {
	arch := appfl.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}
	return appfl.MNISTFederation(clients, int(p.Train), int(p.Test), p.Seed), appfl.CNNFactory(arch, p.Seed)
}
