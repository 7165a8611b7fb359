package core

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Aggregator is the state-update half of the split server: given a batch
// of local updates released by a Scheduler, it produces the next global
// iterate. It is deliberately ignorant of *when* and *from whom* a batch
// is gathered — that is the Scheduler's job — which is the decomposition
// that lets one set of aggregation rules (FedAvg, the ADMM family, the
// staleness-weighted asynchronous rule) serve synchronous, sampled-cohort,
// and buffered semi-asynchronous execution alike.
//
// FedAvgServer, ICEADMMServer, IIADMMServer, and BufferedAggregator all
// implement it; the first three keep their legacy ServerAlgorithm surface
// so pre-refactor callers and tests are untouched.
type Aggregator interface {
	// Dim returns the model dimension.
	Dim() int
	// Version counts the aggregations applied so far — the global model's
	// version number, which clients echo back as LocalUpdate.BaseVersion.
	Version() int
	// Weights returns a defensive copy of the current global model.
	// Mutating the returned slice cannot corrupt server state.
	Weights() []float64
	// WeightsInto copies the current global model into dst (grown as
	// needed) and returns it, for callers that amortize the allocation.
	WeightsInto(dst []float64) []float64
	// Aggregate folds one released batch of local updates into the global
	// model and advances the version.
	Aggregate(batch []*wire.LocalUpdate) error
}

// NewAggregator constructs the aggregator for cfg with initial weights w0.
// The buffered scheduler pairs with the staleness-weighted rule; every
// barrier scheduler uses the algorithm's own server.
func NewAggregator(cfg Config, w0 []float64, numClients int) (Aggregator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == SchedBuffered {
		// Alpha/gamma defaults come from Config.WithDefaults — the single
		// defaulting source; a zero alpha here is a caller error.
		b, err := NewBufferedAggregator(w0, cfg.AsyncAlpha, cfg.AsyncGamma, cfg.MaxStaleness)
		if err != nil {
			return nil, err
		}
		b.Workers = cfg.AggWorkers
		return b, nil
	}
	srv, err := NewServer(cfg, w0, numClients)
	if err != nil {
		return nil, err
	}
	agg, ok := srv.(Aggregator)
	if !ok {
		return nil, fmt.Errorf("core: server for %q does not implement Aggregator", cfg.Algorithm)
	}
	return agg, nil
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
	w       []float64
	version int
	alpha   float64
	gamma   float64

	// MaxStaleness drops updates whose base model is more than this many
	// releases old (0 = keep everything, however stale).
	MaxStaleness int
	// Workers is the sharded-fold width (0 = GOMAXPROCS, 1 = serial).
	// Results are bit-identical across widths; see parallel.go.
	Workers int
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

// NewBufferedAggregator builds the aggregator. alpha in (0,1] is the base
// mixing rate; gamma >= 0 is the staleness-decay exponent.
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
		w:            append([]float64(nil), w0...),
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
func (b *BufferedAggregator) foldChunk(lo, hi int) { tensor.FoldKScaledSrc(b.w, lo, hi, b.srcs) }

// Dim returns the model dimension.
func (b *BufferedAggregator) Dim() int { return len(b.w) }

// Version counts the releases applied so far.
func (b *BufferedAggregator) Version() int { return b.version }

// Weights returns a copy of the current global model.
func (b *BufferedAggregator) Weights() []float64 { return b.WeightsInto(nil) }

// WeightsInto copies the current global model into dst.
func (b *BufferedAggregator) WeightsInto(dst []float64) []float64 {
	return append(dst[:0], b.w...)
}

// Aggregate folds one released batch, down-weighting each update by its
// staleness relative to the current version, and advances the version.
// The whole batch is validated first — an invalid update rejects the
// release before anything folds — then every kept update folds in one
// batched sharded pass (tensor.FoldKScaledSrc). Staleness is measured
// against the pre-release version for every update, exactly as the
// per-update path did (the version advances once per release, at the end).
func (b *BufferedAggregator) Aggregate(batch []*wire.LocalUpdate) error {
	if len(batch) == 0 {
		return fmt.Errorf("core: buffered aggregate on an empty batch")
	}
	for _, u := range batch {
		if u == nil {
			return fmt.Errorf("core: nil update in buffered batch")
		}
		if b.fused != nil && len(u.Primal) == 0 && u.PrimalP != nil {
			if int(u.PrimalP.Dim) != len(b.w) {
				return fmt.Errorf("core: client %d payload dimension %d, model is %d", u.ClientID, u.PrimalP.Dim, len(b.w))
			}
		} else if len(u.Primal) != len(b.w) {
			return fmt.Errorf("core: client %d primal dimension %d, model is %d", u.ClientID, len(u.Primal), len(b.w))
		}
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
		shardRun(len(b.w), b.Workers, b.foldOp)
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
