package core

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// This file implements the streaming aggregation engine: a StreamSession
// folds a round's uplink into the global model chunk by chunk, so the
// server's transient state per round is O(chunk), not O(dim). A chunk is
// a moving range of the FedAvgServer's own accumulator: the session
// weights contributors with fedAvgWeight and folds each window through
// foldRange, the two calls Aggregate makes over [0, dim). Every rule
// involved is element-wise with a fixed per-element fold order, so neither
// the chunk tiling nor the worker width can change a single bit relative
// to the monolithic path (pinned by the sweep in stream_test.go).

// StreamSession aggregates one round of chunked uploads into a
// FedAvgServer. Usage per round:
//
//	ss, _ := NewStreamSession(agg)
//	ss.Begin(samples)              // per-contributor counts, batch order
//	for each chunk c in order:
//	    ss.FoldPayloads(lo, hi, payloads)  // contributor payloads, batch order
//	ss.Finish()                    // version bump, exactly one Aggregate's
//
// The session is not safe for concurrent use; chunks must arrive in
// ascending coordinate order only in the sense that every chunk is folded
// exactly once — disjoint windows commute, so the fold order across
// chunks is immaterial to the result.
type StreamSession struct {
	srv     *FedAvgServer
	samples []uint64 // per-contributor sample counts, batch order
	total   float64
	active  bool
}

// NewStreamSession wraps an aggregator for chunked folding. Only the
// FedAvg server qualifies: the chunk fold is its own range fold.
func NewStreamSession(agg Aggregator) (*StreamSession, error) {
	s, ok := agg.(*FedAvgServer)
	if !ok {
		return nil, fmt.Errorf("core: streaming aggregation requires the FedAvg server, got %T", agg)
	}
	return &StreamSession{srv: s}, nil
}

// Dim returns the model dimension the session streams.
func (ss *StreamSession) Dim() int { return len(ss.srv.W) }

// Begin opens a round with the contributors' sample counts in batch
// order. The counts must be known before the first chunk folds — that is
// why wire.ModelChunk repeats NumSamples on every chunk — because the
// FedAvg weight of each contributor is relative to the whole cohort's
// total. Zero-count contributors carry zero weight, exactly as in
// Aggregate; a round where nobody trained still folds (to a no-op) and
// still bumps the version on Finish.
func (ss *StreamSession) Begin(samples []uint64) error {
	if ss.active {
		return fmt.Errorf("core: stream session already has an open round")
	}
	if len(samples) == 0 {
		return fmt.Errorf("core: aggregate on an empty batch")
	}
	ss.total = 0
	for _, n := range samples {
		ss.total += float64(n)
	}
	ss.samples = append(ss.samples[:0], samples...)
	ss.active = true
	return nil
}

// FoldPayloads folds one coordinate window [lo, hi) of every contributor
// into the model; payloads[i] is contributor i's window, in batch order.
// Dense payloads fold directly; float16 payloads decode on the fly through
// the fold source, the chunked mirror of the fused invert+fold path — per
// element the decode+fold sequence is identical to decoding the whole
// vector first, so compression does not break bit-identity. Zero-weight
// contributors are skipped, matching Aggregate's batch construction, so
// their payload may be nil.
func (ss *StreamSession) FoldPayloads(lo, hi int, payloads []*wire.Payload) error {
	if !ss.active {
		return fmt.Errorf("core: fold outside an open round")
	}
	if lo < 0 || hi < lo || hi > len(ss.srv.W) {
		return fmt.Errorf("core: chunk window [%d,%d) escapes model dimension %d", lo, hi, len(ss.srv.W))
	}
	if len(payloads) != len(ss.samples) {
		return fmt.Errorf("core: chunk carries %d payloads for %d contributors", len(payloads), len(ss.samples))
	}
	if ss.total == 0 {
		return nil
	}
	srcs := ss.srv.srcs[:0]
	for i, p := range payloads {
		if ss.samples[i] == 0 {
			continue
		}
		src, err := chunkFoldSrc(p, hi-lo)
		if err != nil {
			return fmt.Errorf("core: contributor %d: %w", i, err)
		}
		src.W = fedAvgWeight(ss.samples[i], ss.total)
		srcs = append(srcs, src)
	}
	ss.srv.foldRange(lo, hi, srcs)
	return nil
}

// chunkFoldSrc views a chunk payload as a window-relative fold source.
func chunkFoldSrc(p *wire.Payload, width int) (tensor.FoldSrc, error) {
	if p == nil {
		return tensor.FoldSrc{}, fmt.Errorf("core: missing chunk payload")
	}
	if int(p.Dim) != width {
		return tensor.FoldSrc{}, fmt.Errorf("core: payload spans %d coordinates, window is %d", p.Dim, width)
	}
	switch p.Enc {
	case wire.EncDense:
		return tensor.FoldSrc{Kind: tensor.SrcDense, Dense: p.Dense}, nil
	case wire.EncFloat16:
		return tensor.FoldSrc{Kind: tensor.SrcF16, Codes: p.Codes}, nil
	default:
		return tensor.FoldSrc{}, fmt.Errorf("core: %s payloads cannot stream chunk-wise", p.Enc)
	}
}

// Finish closes the round, bumping the model version exactly as one
// Aggregate call would (including the nobody-trained case, which bumps
// without touching the model).
func (ss *StreamSession) Finish() error {
	if !ss.active {
		return fmt.Errorf("core: Finish outside an open round")
	}
	ss.srv.version++
	ss.active = false
	return nil
}
