package core

import (
	"fmt"

	"repro/internal/wire"
)

// This file implements the server half of LoRA-style partial-parameter
// updates (Config.SubsetFrac): clients upload only a trained coordinate
// subset as a wire.EncSubset payload, and the server scatter-folds the
// listed coordinates while every unlisted coordinate keeps its weighted
// share of the current global value:
//
//	w[i] ← acc[i] + (1 − mass[i])·w[i]
//
// where acc[i] = Σ_u a_u·v_u[i] over the contributors listing i (a_u the
// FedAvg weight, v_u the uploaded value) and mass[i] = Σ_u a_u over the
// same contributors. A coordinate nobody lists has mass 0 and keeps w[i]
// exactly (acc 0, factor exactly 1); a coordinate everybody lists has
// mass Σ a_u — exactly 1 when the weights sum to 1 without rounding — and
// reproduces the plain FedAvg average bit for bit (acc + 0·w). The
// scatter runs in batch order and the final sweep is element-wise, so the
// result is bit-identical across worker widths like every other rule
// here.

// isSubsetBatch reports whether any contributing update arrived
// subset-encoded — the trigger for the scatter-fold path. Subset rounds
// are homogeneous (every trained contributor uploads a subset);
// aggregateSubset enforces that.
func isSubsetBatch(batch []*wire.LocalUpdate) bool {
	for _, u := range batch {
		if u != nil && u.PrimalP != nil && u.PrimalP.Enc == wire.EncSubset {
			return true
		}
	}
	return false
}

// aggregateSubset folds a batch of subset payloads into the model. The
// weights are Aggregate's exactly (fedAvgWeight); zero-weight
// contributors are skipped and need not carry a payload.
func (s *FedAvgServer) aggregateSubset(batch []*wire.LocalUpdate) error {
	dim := len(s.W)
	total := 0.0
	for i, u := range batch {
		if u == nil {
			return fmt.Errorf("core: missing update from client %d", i)
		}
		if u.NumSamples == 0 {
			continue
		}
		p := u.PrimalP
		if p == nil || p.Enc != wire.EncSubset {
			return fmt.Errorf("core: client %d uploaded a full update into a subset round", u.ClientID)
		}
		if int(p.Dim) != dim {
			return fmt.Errorf("core: client %d subset spans dimension %d, model is %d", u.ClientID, p.Dim, dim)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: client %d update: %w", u.ClientID, err)
		}
		total += float64(u.NumSamples)
	}
	s.version++
	if total == 0 {
		return nil
	}
	if len(s.subMass) != dim {
		s.subMass = make([]float64, dim)
		s.subAcc = make([]float64, dim)
	} else {
		for i := range s.subMass {
			s.subMass[i] = 0
			s.subAcc[i] = 0
		}
	}
	// Scatter in batch order — the same per-coordinate fold order as the
	// dense kernel, so full-coverage subsets reproduce its sums exactly.
	for _, u := range batch {
		if u.NumSamples == 0 {
			continue
		}
		a := fedAvgWeight(u.NumSamples, total)
		p := u.PrimalP
		for k, idx := range p.Indices {
			s.subAcc[idx] += a * p.Values[k]
			s.subMass[idx] += a
		}
	}
	shardRun(dim, s.Workers, s.subOp)
	return nil
}

// subsetChunk applies the scatter-fold's final sweep over one index
// chunk: listed mass replaces, unlisted mass retains.
func (s *FedAvgServer) subsetChunk(lo, hi int) {
	w, acc, mass := s.W, s.subAcc, s.subMass
	for i := lo; i < hi; i++ {
		w[i] = acc[i] + (1-mass[i])*w[i]
	}
}

// BuildSubsetPayload views the first ceil(frac·dim) coordinates of a
// trained vector as a subset upload — the contiguous low-rank-style slice
// the SubsetFrac client path sends (a fixed prefix, so server and client
// agree on the trained set with nothing extra on the wire). frac is
// clamped to (0,1]; at 1 the subset covers the model and the fold
// reproduces plain FedAvg.
func BuildSubsetPayload(primal []float64, frac float64) *wire.Payload {
	dim := len(primal)
	n := int(frac * float64(dim))
	if n < 1 {
		n = 1
	}
	if n > dim {
		n = dim
	}
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	return &wire.Payload{
		Enc:     wire.EncSubset,
		Dim:     uint32(dim),
		Indices: idx,
		Values:  append([]float64(nil), primal[:n]...),
	}
}
