package pipeline

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Fused invert+fold.
//
// The server-side two-pass path inverts each payload to a dense vector
// (one full write + read of dim·8 bytes per update) and then folds the
// dense vector into the accumulator. For the deterministic decode-only
// compressions — f16 and affine quantization — the inversion is a pure
// per-coordinate map, so it can run inside the fold kernel's inner loop
// instead: the payload's codes stream through registers straight into
// the accumulator and the densified intermediate never exists.
//
// Fusing the whole stack this way is sound because of the pipeline
// ordering rules: at most one compression stage, always last, and every
// non-compression stage (clip, noise) inverts to the identity. The
// stack's inverse therefore IS the compression stage's decode. Top-k
// sparsification is excluded — its inverse scatters into a zero vector,
// which is not a per-coordinate map over a contiguous code stream.

// FusedStage is implemented by compression stages whose Invert is a pure
// per-coordinate decode, allowing the server to fold the still-encoded
// payload directly into the aggregation accumulator.
type FusedStage interface {
	Stage
	// FusedEnc is the wire encoding the stage's Apply produces — the only
	// encoding FoldSrc accepts.
	FusedEnc() wire.Encoding
	// FoldSrc views a received update as a fold source decoding on the
	// fly. The update must carry FusedEnc and be Validate-clean; the
	// returned source aliases the update's code buffer. The fold
	// coefficient (FoldSrc.W) is left zero for the caller to set.
	FoldSrc(u *Update) (tensor.FoldSrc, error)
}

// Fused returns the pipeline's compression stage if the whole server-side
// inverse can be fused into the fold — i.e. the stack compresses with a
// stage implementing FusedStage. A pipeline with no compression stage
// returns false: its inverse is the identity and the dense payload
// already folds without any intermediate copy.
func (p *Pipeline) Fused() (FusedStage, bool) {
	if p == nil {
		return nil, false
	}
	for _, s := range p.stages {
		if fs, ok := s.(FusedStage); ok {
			return fs, true
		}
	}
	return nil, false
}

// FusedEnc returns the half-float encoding.
func (s *Float16Cast) FusedEnc() wire.Encoding { return wire.EncFloat16 }

// FoldSrc views a received f16 update as a fold source.
func (s *Float16Cast) FoldSrc(u *Update) (tensor.FoldSrc, error) {
	if u.Enc != wire.EncFloat16 {
		return tensor.FoldSrc{}, fmt.Errorf("%w: expected float16 encoding, got %s", ErrSpec, u.Enc)
	}
	return tensor.FoldSrc{Kind: tensor.SrcF16, Codes: u.Codes}, nil
}

// FusedEnc returns the quantized encoding.
func (s *StochasticQuantize) FusedEnc() wire.Encoding { return wire.EncQuant }

// FoldSrc views a received quantized update as a fold source. The
// update's bit width must match the stack's, mirroring Invert.
func (s *StochasticQuantize) FoldSrc(u *Update) (tensor.FoldSrc, error) {
	if u.Enc != wire.EncQuant {
		return tensor.FoldSrc{}, fmt.Errorf("%w: expected quant encoding, got %s", ErrSpec, u.Enc)
	}
	if u.Bits != s.Bits {
		return tensor.FoldSrc{}, fmt.Errorf("%w: quantized at %d bits, stack configured for %d", ErrSpec, u.Bits, s.Bits)
	}
	kind := tensor.SrcQuant8
	if s.Bits > 8 {
		kind = tensor.SrcQuant16
	}
	return tensor.FoldSrc{Kind: kind, Codes: u.Codes, Scale: u.Scale, Offset: u.Offset}, nil
}
