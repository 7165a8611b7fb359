package core

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// BaseServer is the analog of APPFL's BaseServer class: the one owner of
// a global model. Every Aggregator embeds it — FedAvgServer, the ADMM
// servers and BufferedAggregator — and lends W to the round engine
// (GlobalWeights) instead of copying it. Only the algorithm's fold
// (Aggregate, or a StreamSession's chunks) and journal recovery write it.
type BaseServer struct {
	W          []float64 // global model parameters
	NumClients int
	// Workers is the sharded-aggregation width (0 = GOMAXPROCS, 1 =
	// serial). Every server rule here is element-wise with a fixed
	// per-element fold order, so results are bit-identical across widths;
	// see parallel.go.
	Workers int

	version int // aggregations applied so far
}

// newBaseServer owns a copy of the initial weights w0.
func newBaseServer(w0 []float64, numClients int) BaseServer {
	return BaseServer{W: append([]float64(nil), w0...), NumClients: numClients}
}

// GlobalWeights lends the live global model W; see Aggregator.
func (b *BaseServer) GlobalWeights() []float64 { return b.W }

// Weights returns a defensive copy of the global parameter vector.
func (b *BaseServer) Weights() []float64 { return append([]float64(nil), b.W...) }

// Dim returns the model dimension.
func (b *BaseServer) Dim() int { return len(b.W) }

// Version counts the aggregations applied so far.
func (b *BaseServer) Version() int { return b.version }

// restore loads a recovered model and version — how journal recovery puts
// the "brain" back exactly where the crashed process left it.
func (b *BaseServer) restore(w []float64, version int) error {
	if len(w) != len(b.W) {
		return fmt.Errorf("core: recovered model has %d parameters, aggregator %d", len(w), len(b.W))
	}
	copy(b.W, w)
	b.version = version
	return nil
}

// checkUpdates validates a full-federation batch, the only kind the ADMM
// servers take: one update per client, ordered by client ID.
func (b *BaseServer) checkUpdates(updates []*wire.LocalUpdate, needDual bool) error {
	if len(updates) != b.NumClients {
		return fmt.Errorf("core: gathered %d updates for %d clients", len(updates), b.NumClients)
	}
	return b.checkBatch(updates, needDual, false)
}

// checkBatch validates a released batch of any size (the cohort form used
// by the Scheduler × Aggregator path). With allowEnc, an update may carry
// its primal as a still-encoded payload (the fused invert+fold path); the
// payload's declared dimension is checked in Primal's stead.
func (b *BaseServer) checkBatch(batch []*wire.LocalUpdate, needDual, allowEnc bool) error {
	if len(batch) == 0 {
		return fmt.Errorf("core: aggregate on an empty batch")
	}
	for i, u := range batch {
		if u == nil {
			return fmt.Errorf("core: missing update from client %d", i)
		}
		if allowEnc && len(u.Primal) == 0 && u.PrimalP != nil {
			if int(u.PrimalP.Dim) != len(b.W) {
				return fmt.Errorf("core: client %d payload dimension %d, model is %d", u.ClientID, u.PrimalP.Dim, len(b.W))
			}
		} else if len(u.Primal) != len(b.W) {
			return fmt.Errorf("core: client %d primal dimension %d, model is %d", u.ClientID, len(u.Primal), len(b.W))
		}
		if needDual && len(u.Dual) != len(b.W) {
			return fmt.Errorf("core: client %d dual dimension %d, model is %d", u.ClientID, len(u.Dual), len(b.W))
		}
	}
	return nil
}

// foldSrcFor views one update as a fold source for the batched kernels:
// the dense primal when it was decoded (or arrived legacy-dense), or the
// still-encoded payload via the fused stage. w is the fold coefficient.
func foldSrcFor(u *wire.LocalUpdate, fused pipeline.FusedStage, w float64) (tensor.FoldSrc, error) {
	if len(u.Primal) > 0 || fused == nil || u.PrimalP == nil {
		return tensor.FoldSrc{Kind: tensor.SrcDense, Dense: u.Primal, W: w}, nil
	}
	src, err := fused.FoldSrc(u.PrimalP)
	if err != nil {
		return src, fmt.Errorf("core: client %d update: %w", u.ClientID, err)
	}
	src.W = w
	return src, nil
}

// clearSrcs drops the batch aliases so recycled scratch does not pin
// payload buffers past the aggregation that used them.
func clearSrcs(srcs []tensor.FoldSrc) {
	for i := range srcs {
		srcs[i] = tensor.FoldSrc{}
	}
}

// FedAvgServer implements federated averaging (McMahan et al., 2017):
// the global model is the sample-weighted average of client models,
// w ← Σ_p (I_p/I) z_p, following Eq. (1)'s weighting.
//
// W is the one accumulator every FedAvg fold writes: Aggregate folds the
// range [0, dim) and a StreamSession folds one chunk window at a time,
// both through fedAvgWeight and foldRange, so a streamed round and a
// monolithic one perform the same operations on every coordinate.
type FedAvgServer struct {
	BaseServer

	// fused, when set, lets Aggregate fold still-encoded payloads (f16 or
	// quantized) straight into the accumulator; see EnableFusedFold.
	fused pipeline.FusedStage

	// Fold scratch: the batch's weighted sources, the accumulator window
	// under fold and the pre-bound range op (no per-call closure or slice
	// allocation; see BufferedAggregator for the same pattern).
	srcs    []tensor.FoldSrc
	foldWin []float64
	foldOp  func(lo, hi int)

	// Scatter-fold scratch of the subset (partial-parameter) path: listed
	// coordinate mass and weighted sums, plus the pre-bound sweep op. See
	// subset.go.
	subMass []float64
	subAcc  []float64
	subOp   func(lo, hi int)
}

// NewFedAvgServer builds the server with initial weights w0.
func NewFedAvgServer(w0 []float64, numClients int) *FedAvgServer {
	s := &FedAvgServer{BaseServer: newBaseServer(w0, numClients)}
	s.foldOp = s.foldChunk
	s.subOp = s.subsetChunk
	return s
}

// setFusedStage wires the fused invert+fold fast path (EnableFusedFold).
func (s *FedAvgServer) setFusedStage(fs pipeline.FusedStage) { s.fused = fs }

// fedAvgWeight is the FedAvg coefficient of a contributor holding n of a
// batch's total samples. The division (not a hoisted reciprocal) keeps
// the weight the exact bits of the pre-kernel path.
func fedAvgWeight(n uint64, total float64) float64 { return float64(n) / total }

// foldRange sets W[lo:hi) to Σ_k srcs[k].W·dec_k, where srcs index the
// window from 0 (source coordinate i lands on model coordinate lo+i). The
// window splits into Workers chunks, each folded with the cache-blocked
// K-way kernel; per element the fold order (zero, then += in batch order)
// matches the pre-kernel serial loop exactly, so neither the window, the
// chunking nor the blocking can change a single bit.
func (s *FedAvgServer) foldRange(lo, hi int, srcs []tensor.FoldSrc) {
	s.srcs = srcs
	s.foldWin = s.W[lo:hi:hi]
	shardRun(hi-lo, s.Workers, s.foldOp)
	s.foldWin = nil
	clearSrcs(srcs)
}

// foldChunk folds the staged batch over one chunk of the window.
func (s *FedAvgServer) foldChunk(lo, hi int) { tensor.FoldKSrc(s.foldWin, lo, hi, s.srcs) }

// Aggregate averages a released batch of any size, weighting each primal
// by its sample count: a sampled cohort's updates carry full weight.
// Updates with NumSamples == 0 carry zero weight; a round in which nobody
// trained leaves the global model unchanged. All contributing updates fold
// in one batched K-way pass over [0, dim) (foldRange) instead of K
// separate accumulator sweeps.
func (s *FedAvgServer) Aggregate(batch []*wire.LocalUpdate) error {
	if isSubsetBatch(batch) {
		return s.aggregateSubset(batch)
	}
	if err := s.checkBatch(batch, false, s.fused != nil); err != nil {
		return err
	}
	total := 0.0
	for _, u := range batch {
		total += float64(u.NumSamples)
	}
	srcs := s.srcs[:0]
	if total > 0 {
		for _, u := range batch {
			if u.NumSamples == 0 {
				continue
			}
			src, err := foldSrcFor(u, s.fused, fedAvgWeight(u.NumSamples, total))
			if err != nil {
				return err
			}
			srcs = append(srcs, src)
		}
	}
	s.version++
	if total > 0 {
		s.foldRange(0, len(s.W), srcs)
	}
	return nil
}

// ICEADMMServer implements the server step of ICEADMM (Zhou & Li, 2021):
// clients upload both primal z_p and dual λ_p each round and the server
// computes w ← (1/P) Σ_p (z_p − λ_p/ρ), the closed-form solution of (3a).
type ICEADMMServer struct {
	BaseServer
	Rho float64
	// Adaptive, when non-nil, re-tunes Rho by residual balancing after
	// every round (the paper's planned adaptive-penalty extension).
	Adaptive *AdaptiveRho

	wPrev []float64 // the pre-round model, kept only for Adaptive

	// Per-batch primal/dual views and the pre-bound chunk op of the
	// sharded consensus fold (reused scratch; no per-call allocation).
	aggZ  [][]float64
	aggD  [][]float64
	aggOp func(lo, hi int)
}

// NewICEADMMServer builds the server with initial weights w0.
func NewICEADMMServer(w0 []float64, numClients int, rho float64) *ICEADMMServer {
	s := &ICEADMMServer{BaseServer: newBaseServer(w0, numClients), Rho: rho}
	s.aggOp = s.aggChunk
	return s
}

// aggChunk computes w ← (1/P) Σ_p (z_p − λ_p/ρ) over one index chunk with
// the cache-blocked K-way kernel, folding clients in batch order per
// element exactly like the pre-kernel serial loop.
func (s *ICEADMMServer) aggChunk(lo, hi int) {
	tensor.FoldKDual(s.W, lo, hi, s.aggZ, s.aggD, 1.0/float64(s.NumClients), s.Rho)
}

// CurrentRho reports the penalty the next round must use.
func (s *ICEADMMServer) CurrentRho() float64 { return s.Rho }

// Aggregate recomputes w from the uploaded primal and dual vectors, then
// adapts ρ when the controller is attached. The ADMM family keeps one dual
// per client, so a valid batch covers the whole federation ordered by
// client ID — partial cohorts are a configuration error caught by
// Config.Validate.
func (s *ICEADMMServer) Aggregate(updates []*wire.LocalUpdate) error {
	if err := s.checkUpdates(updates, true); err != nil {
		return err
	}
	s.version++
	if s.Adaptive != nil {
		s.wPrev = append(s.wPrev[:0], s.W...)
	}
	s.aggZ, s.aggD = s.aggZ[:0], s.aggD[:0]
	for _, u := range updates {
		s.aggZ = append(s.aggZ, u.Primal)
		s.aggD = append(s.aggD, u.Dual)
	}
	shardRun(len(s.W), s.Workers, s.aggOp)
	if s.Adaptive != nil {
		p, d := Residuals(s.W, s.wPrev, s.aggZ, s.Rho)
		s.Rho = s.Adaptive.Step(p, d)
	}
	clearVecs(s.aggZ)
	clearVecs(s.aggD)
	return nil
}

// clearVecs drops batch aliases from recycled [][]float64 scratch.
func clearVecs(vs [][]float64) {
	for i := range vs {
		vs[i] = nil
	}
}

// IIADMMServer implements the server of the paper's Algorithm 1. The
// decisive difference from ICEADMM: clients upload only z_p; the server
// maintains its own mirror copy of every dual λ_p and applies the identical
// dual update λ_p ← λ_p + ρ(w − z_p) (line 6), which stays consistent with
// the client copies because (z¹,λ¹) are agreed once at initialization.
type IIADMMServer struct {
	BaseServer
	Rho        float64
	FreezeDual bool
	// Adaptive, when non-nil, re-tunes Rho after every round. The new ρ is
	// broadcast with the next global model, so the client dual updates (made
	// with the broadcast ρ) remain bit-identical to the server mirrors.
	Adaptive *AdaptiveRho

	duals [][]float64 // mirror λ_p per client
	wPrev []float64   // the pre-round model, kept only for Adaptive

	aggZ  [][]float64 // per-batch primal views (reused scratch)
	aggOp func(lo, hi int)
}

// NewIIADMMServer builds the server; duals start at zero, the shared
// initialization of Algorithm 1 line 1.
func NewIIADMMServer(w0 []float64, numClients int, rho float64) *IIADMMServer {
	duals := make([][]float64, numClients)
	for i := range duals {
		duals[i] = make([]float64, len(w0))
	}
	s := &IIADMMServer{
		BaseServer: newBaseServer(w0, numClients),
		Rho:        rho,
		duals:      duals,
	}
	s.aggOp = s.aggChunk
	return s
}

// aggChunk runs lines 6 and 3 of Algorithm 1 over one index chunk with
// the cache-blocked kernels. The dual update reads the pre-zeroing w of
// its own chunk only, so running chunks concurrently is exactly the
// serial element order; the batch covers every client ordered by ID
// (checkUpdates), so batch index p addresses mirror dual s.duals[p].
func (s *IIADMMServer) aggChunk(lo, hi int) {
	if !s.FreezeDual {
		tensor.DualStepK(s.duals, s.W, lo, hi, s.aggZ, s.Rho)
	}
	tensor.FoldKDual(s.W, lo, hi, s.aggZ, s.duals, 1.0/float64(s.NumClients), s.Rho)
}

// Dual exposes the mirror dual of one client for consistency testing.
func (s *IIADMMServer) Dual(client int) []float64 { return s.duals[client] }

// CurrentRho reports the penalty the next round must use.
func (s *IIADMMServer) CurrentRho() float64 { return s.Rho }

// Aggregate implements lines 3 and 6 of Algorithm 1: first the mirror
// dual update with the incoming primals against the w that produced them,
// then the global update w ← (1/P) Σ_p (z_p − λ_p/ρ) for the next round,
// then (optionally) the adaptive-ρ step for the round after. Like
// ICEADMM's, a valid batch covers the whole federation.
func (s *IIADMMServer) Aggregate(updates []*wire.LocalUpdate) error {
	if err := s.checkUpdates(updates, false); err != nil {
		return err
	}
	s.version++
	if s.Adaptive != nil {
		s.wPrev = append(s.wPrev[:0], s.W...)
	}
	// Line 6: λ_p ← λ_p + ρ(w^{t+1} − z_p^{t+1}); w is still the model that
	// was broadcast this round, and ρ is the value that rode with it.
	// Line 3 (for the next round): w ← (1/P) Σ (z_p − λ_p/ρ).
	// Both are element-wise, so they run sharded in one chunk pass.
	s.aggZ = s.aggZ[:0]
	for _, u := range updates {
		s.aggZ = append(s.aggZ, u.Primal)
	}
	shardRun(len(s.W), s.Workers, s.aggOp)
	if s.Adaptive != nil {
		p, d := Residuals(s.W, s.wPrev, s.aggZ, s.Rho)
		s.Rho = s.Adaptive.Step(p, d)
	}
	clearVecs(s.aggZ)
	return nil
}

// Interface conformance checks.
var (
	_ Aggregator = (*FedAvgServer)(nil)
	_ Aggregator = (*ICEADMMServer)(nil)
	_ Aggregator = (*IIADMMServer)(nil)
)
