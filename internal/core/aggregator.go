package core

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Aggregator is the server algorithm — the component a user swaps, as
// APPFL users subclass BaseServer — and the state-update half of the split
// server: given a batch of local updates released by a Scheduler, it
// produces the next global iterate. It is deliberately ignorant of *when*
// and *from whom* a batch is gathered — that is the Scheduler's job —
// which is the decomposition that lets one set of aggregation rules
// (FedAvg, the ADMM family, the staleness-weighted asynchronous rule)
// serve synchronous, sampled-cohort, and buffered semi-asynchronous
// execution alike.
//
// FedAvgServer, ICEADMMServer, IIADMMServer, and BufferedAggregator
// implement it by embedding BaseServer, the one owner of their model, and
// adding Aggregate; a user-defined algorithm does the same.
type Aggregator interface {
	// Dim returns the model dimension.
	Dim() int
	// Version counts the aggregations applied so far — the global model's
	// version number, which clients echo back as LocalUpdate.BaseVersion.
	Version() int
	// GlobalWeights lends the live global model: the aggregator's own
	// vector, not a copy, valid until the aggregator's next call. The
	// round engine dispatches, evaluates and journals from it; a caller
	// must only read it, and must not hold it past the next Aggregate.
	GlobalWeights() []float64
	// Weights returns a defensive copy of the current global model.
	// Mutating the returned slice cannot corrupt server state.
	Weights() []float64
	// Aggregate folds one released batch of local updates into the global
	// model and advances the version.
	Aggregate(batch []*wire.LocalUpdate) error
}

// NewAggregator constructs the aggregator for cfg, which owns the initial
// weights w0 from then on: a run hands it the evaluation replica's own
// vector (nn.ParamVector), and a caller that reuses w0 passes a copy. The
// buffered scheduler pairs with the staleness-weighted rule; every barrier
// scheduler uses the algorithm's own server.
func NewAggregator(cfg Config, w0 []float64, numClients int) (Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Scheduler == SchedBuffered:
		// Alpha/gamma defaults come from Config.WithDefaults — the single
		// defaulting source; a zero alpha here is a caller error.
		b, err := NewBufferedAggregator(w0, cfg.AsyncAlpha, cfg.AsyncGamma, cfg.MaxStaleness)
		if err != nil {
			return nil, err
		}
		return b, nil
	case cfg.Algorithm == AlgoFedAvg:
		s := NewFedAvgServer(w0, numClients)
		s.span = subsetSpan(len(w0), cfg.SubsetFrac)
		return s, nil
	case cfg.Algorithm == AlgoICEADMM:
		s := NewICEADMMServer(w0, numClients, cfg.Rho)
		if cfg.AdaptiveRho {
			s.Adaptive = NewAdaptiveRho(cfg.Rho)
		}
		return s, nil
	case cfg.Algorithm == AlgoIIADMM:
		s := NewIIADMMServer(w0, numClients, cfg.Rho)
		s.FreezeDual = cfg.FreezeDual
		if cfg.AdaptiveRho {
			s.Adaptive = NewAdaptiveRho(cfg.Rho)
		}
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
}

// StalenessWeight is the FedAsync mixing rate α_s = α·(1+staleness)^(−γ):
// the staler the contribution, the smaller its influence on the global
// model. It is the rule BufferedAggregator folds with.
func StalenessWeight(alpha, gamma, staleness float64) float64 {
	return alpha * math.Pow(1+staleness, -gamma)
}

// BufferedAggregator implements the FedBuff-style semi-asynchronous rule:
// the Buffered scheduler releases a batch as soon as K updates land, and
// each update in the batch is folded into the global model down-weighted
// by its staleness (the number of releases since the contributor last
// downloaded the model). Updates staler than MaxStaleness are dropped
// entirely. One release advances the model version by one.
type BufferedAggregator struct {
	BaseServer
	alpha float64
	gamma float64

	// MaxStaleness drops updates whose base model is more than this many
	// releases old (0 = keep everything, however stale).
	MaxStaleness int
	// Applied and Dropped count folded and discarded updates;
	// StaleApplied counts the folded updates that had staleness > 0.
	Applied, Dropped, StaleApplied int

	// fused, when set, folds still-encoded payloads directly; see
	// EnableFusedFold.
	fused pipeline.FusedStage

	// Pre-bound fold operation and fold-source scratch: binding the
	// method value once at construction keeps the sharded batched fold
	// allocation-free in steady state (no per-call closure).
	srcs   []tensor.FoldSrc
	foldOp func(lo, hi int)
}

// NewBufferedAggregator builds the aggregator, which owns w0 (see
// NewAggregator). alpha in (0,1] is the base mixing rate; gamma >= 0 is
// the staleness-decay exponent.
func NewBufferedAggregator(w0 []float64, alpha, gamma float64, maxStaleness int) (*BufferedAggregator, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: buffered alpha must be in (0,1], got %v", alpha)
	}
	if gamma < 0 {
		return nil, fmt.Errorf("core: buffered gamma must be >= 0, got %v", gamma)
	}
	if maxStaleness < 0 {
		return nil, fmt.Errorf("core: MaxStaleness must be >= 0, got %d", maxStaleness)
	}
	b := &BufferedAggregator{
		BaseServer:   newBaseServer(w0, 0),
		alpha:        alpha,
		gamma:        gamma,
		MaxStaleness: maxStaleness,
	}
	b.foldOp = b.foldChunk
	return b, nil
}

// setFusedStage wires the fused invert+fold fast path (EnableFusedFold).
func (b *BufferedAggregator) setFusedStage(fs pipeline.FusedStage) { b.fused = fs }

// foldChunk folds the whole release over one chunk with the cache-blocked
// sequential-convex kernel: within a block, update k fully folds before
// update k+1, so per element the operation sequence is exactly the
// pre-kernel one-update-at-a-time sweeps.
func (b *BufferedAggregator) foldChunk(lo, hi int) { tensor.FoldKScaledSrc(b.W, lo, hi, b.srcs) }

// Aggregate folds one released batch, down-weighting each update by its
// staleness relative to the current version, and advances the version.
// The whole batch is validated first — an invalid update rejects the
// release before anything folds — then every kept update folds in one
// batched sharded pass (tensor.FoldKScaledSrc). Staleness is measured
// against the pre-release version for every update, exactly as the
// per-update path did (the version advances once per release, at the end).
func (b *BufferedAggregator) Aggregate(batch []*wire.LocalUpdate) error {
	if err := b.checkBatch(batch, len(b.W), false, b.fused != nil); err != nil {
		return err
	}
	for _, u := range batch {
		if u.BaseVersion > uint64(b.version) {
			return fmt.Errorf("core: client %d update from future version %d, server at %d", u.ClientID, u.BaseVersion, b.version)
		}
	}
	srcs := b.srcs[:0]
	applied, staleApplied, dropped := 0, 0, 0
	for _, u := range batch {
		staleness := b.version - int(u.BaseVersion)
		if b.MaxStaleness > 0 && staleness > b.MaxStaleness {
			dropped++
			continue
		}
		if u.NumSamples == 0 {
			continue
		}
		src, err := foldSrcFor(u, b.fused, StalenessWeight(b.alpha, b.gamma, float64(staleness)))
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
		applied++
		if staleness > 0 {
			staleApplied++
		}
	}
	b.srcs = srcs
	if len(srcs) > 0 {
		shardRun(len(b.W), b.Workers, b.foldOp)
		clearSrcs(b.srcs)
	}
	b.Applied += applied
	b.StaleApplied += staleApplied
	b.Dropped += dropped
	b.version++
	return nil
}

// Interface conformance check.
var _ Aggregator = (*BufferedAggregator)(nil)
