// Package pipeline implements the composable update pipeline: an Update
// value (a model vector in one of the wire encodings) flows through an
// ordered stack of Stages on its way from a client's local solver to the
// server's Aggregator. Privacy stages (gradient clipping, Laplace/Gaussian
// output perturbation) and compression stages (top-k sparsification,
// stochastic quantization, float16 casting) compose in one stack, the
// refactor "Advances in APPFL" (arXiv:2409.11585) makes a first-class
// framework layer.
//
// Every stage has a server-side Inverse: the server runs the stack in
// reverse over the received payload before the Aggregator sees the update.
// Privacy stages invert to the identity — noise is deliberately not
// removable — while compression stages reconstruct a dense vector. An
// empty pipeline is the exact identity: the update crosses the wire in the
// legacy dense encoding, bit for bit.
package pipeline

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/wire"
)

// Update is the value flowing through the stack: a model vector in one of
// the wire payload encodings. Client-side stages transform it in order
// (dense in, possibly compressed out); the server inverts it back to dense.
type Update = wire.Payload

// NewDense wraps a dense vector as an Update about to enter the stack.
// The slice is adopted, not copied; stages may transform it in place.
func NewDense(v []float64) *Update {
	return &Update{Enc: wire.EncDense, Dim: uint32(len(v)), Dense: v}
}

// ErrSpec is the sentinel wrapped by every pipeline specification error:
// unknown stage names, bad arguments, or an invalid stage ordering.
var ErrSpec = errors.New("pipeline: invalid spec")

// ErrNeedRNG is returned by Apply when a randomized stage was built
// without an RNG — the server-side (inverse-only) form of the pipeline.
var ErrNeedRNG = errors.New("pipeline: randomized stage built without an RNG cannot Apply")

// Stage is one transform of the update stack. Apply runs on the client on
// the outbound update; Invert runs on the server, in reverse stack order,
// to reconstruct the dense vector the Aggregator consumes.
type Stage interface {
	// Name is the stage's spec identifier (e.g. "clip", "laplace", "topk").
	Name() string
	// Spec renders the stage back to its spec form (e.g. "clip:1").
	Spec() string
	// Apply transforms the outbound update in place. sens is the DP
	// sensitivity Δ̄ supplied by the algorithm's sensitivity rule; only
	// noise stages consume it.
	Apply(u *Update, sens float64) error
	// Invert reconstructs the update server-side. Privacy stages are the
	// identity; compression stages densify and must find their own
	// encoding on the incoming update (a mismatch is a protocol error).
	Invert(u *Update) error
}

// gradStage is implemented by stages that act during local training rather
// than on the release: ClipL2 bounds every gradient (that is where the DP
// sensitivity bound comes from), and in objective-perturbation mode the
// noise stages contribute a per-round gradient offset.
type gradStage interface {
	// gradHook transforms one local gradient in place.
	gradHook(g []float64)
}

// noiseStage is implemented by the DP noise stages.
type noiseStage interface {
	// epsilon is the per-release privacy budget the stage consumes.
	epsilon() float64
	// roundNoise draws the objective-perturbation vector for one round
	// (the ⟨b, z⟩ linear term), consuming the stage's RNG.
	roundNoise(dim int, sens float64) []float64
	// setObjective switches the stage between output perturbation (noise
	// on the release) and objective perturbation (noise via roundNoise).
	setObjective(bool)
}

// Pipeline is an ordered stack of stages plus the per-round state of the
// objective-perturbation mode. One Pipeline serves one client (stages own
// client-specific RNG streams); the server builds its own inverse-only
// Pipeline from the same spec.
type Pipeline struct {
	stages []Stage

	objective bool      // objective-perturbation mode for this client
	objNoise  []float64 // per-round gradient offset drawn in BeginRound
}

// New assembles and validates a pipeline. The ordering rules:
//
//   - at most one clip stage, and it must precede any noise stage (the
//     clip bound is what makes the noise sensitivity finite);
//   - noise stages require a clip stage somewhere before them;
//   - at most one compression stage (topk/quantize/f16), and it must be
//     the last stage — noise must enter before the update leaves the
//     dense encoding.
func New(stages ...Stage) (*Pipeline, error) {
	seenClip := false
	seenEnc := false
	for _, s := range stages {
		switch s.(type) {
		case *ClipL2:
			if seenClip {
				return nil, fmt.Errorf("%w: duplicate clip stage", ErrSpec)
			}
			if seenEnc {
				return nil, fmt.Errorf("%w: clip must precede compression", ErrSpec)
			}
			seenClip = true
		case *LaplaceNoise, *GaussianNoise:
			if !seenClip {
				return nil, fmt.Errorf("%w: noise stage %q requires a preceding clip stage to bound sensitivity", ErrSpec, s.Name())
			}
			if seenEnc {
				return nil, fmt.Errorf("%w: noise must precede compression", ErrSpec)
			}
		case *TopKSparsify, *StochasticQuantize, *Float16Cast:
			if seenEnc {
				return nil, fmt.Errorf("%w: at most one compression stage (%q is the second)", ErrSpec, s.Name())
			}
			seenEnc = true
		default:
			return nil, fmt.Errorf("%w: unknown stage type %T", ErrSpec, s)
		}
	}
	return &Pipeline{stages: stages}, nil
}

// Empty reports whether the pipeline has no stages (the exact identity).
func (p *Pipeline) Empty() bool { return p == nil || len(p.stages) == 0 }

// Stages returns the ordered stage stack (read-only view).
func (p *Pipeline) Stages() []Stage {
	if p == nil {
		return nil
	}
	return p.stages
}

// String renders the pipeline back to its spec form.
func (p *Pipeline) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.stages))
	for i, s := range p.stages {
		parts[i] = s.Spec()
	}
	return strings.Join(parts, ",")
}

// ClipBound returns the gradient clip bound C of the clip stage, or 0 when
// the pipeline does not clip. The per-algorithm sensitivity rules derive
// Δ̄ from this bound.
func (p *Pipeline) ClipBound() float64 {
	if p == nil {
		return 0
	}
	for _, s := range p.stages {
		if c, ok := s.(*ClipL2); ok {
			return c.C
		}
	}
	return 0
}

// Compresses reports whether the stack has a compression stage (topk,
// quantize or f16): whether its release leaves the dense encoding.
func (p *Pipeline) Compresses() bool {
	for _, s := range p.Stages() {
		switch s.(type) {
		case *TopKSparsify, *StochasticQuantize, *Float16Cast:
			return true
		}
	}
	return false
}

// Epsilon returns the total per-release privacy budget consumed by the
// noise stages under sequential composition, or +Inf when the pipeline
// adds no noise — the value reported in LocalUpdate.Epsilon.
func (p *Pipeline) Epsilon() float64 {
	total := 0.0
	if p != nil {
		for _, s := range p.stages {
			if n, ok := s.(noiseStage); ok {
				total += n.epsilon()
			}
		}
	}
	if total == 0 {
		return inf
	}
	return total
}

// SetObjective switches the pipeline's noise stages between output
// perturbation (default: noise added to the release by Apply) and
// objective perturbation (noise drawn once per round by BeginRound and
// added to every gradient instead).
func (p *Pipeline) SetObjective(objective bool) {
	p.objective = objective
	for _, s := range p.stages {
		if n, ok := s.(noiseStage); ok {
			n.setObjective(objective)
		}
	}
}

// BeginRound prepares per-round state: in objective mode it draws the
// round's perturbation vector b from the noise stages, which GradHook then
// adds to every gradient (the ⟨b, z⟩ term of the perturbed objective).
func (p *Pipeline) BeginRound(dim int, sens float64) {
	if !p.objective {
		p.objNoise = nil
		return
	}
	p.objNoise = nil
	for _, s := range p.stages {
		if n, ok := s.(noiseStage); ok {
			v := n.roundNoise(dim, sens)
			if p.objNoise == nil {
				p.objNoise = v
				continue
			}
			for i := range p.objNoise {
				p.objNoise[i] += v[i]
			}
		}
	}
}

// GradHook post-processes one local gradient in place: the clip stage
// bounds its norm, and in objective mode the round's noise vector is
// added. This is the training-time half of the pipeline; Apply is the
// release-time half.
func (p *Pipeline) GradHook(g []float64) {
	if p == nil {
		return
	}
	for _, s := range p.stages {
		if gs, ok := s.(gradStage); ok {
			gs.gradHook(g)
		}
	}
	if p.objNoise != nil {
		for i := range g {
			g[i] += p.objNoise[i]
		}
	}
}

// Apply runs the outbound stack in order over u. sens is the release's DP
// sensitivity Δ̄ from the algorithm's sensitivity rule.
func (p *Pipeline) Apply(u *Update, sens float64) error {
	if p == nil {
		return nil
	}
	for _, s := range p.stages {
		if err := s.Apply(u, sens); err != nil {
			return fmt.Errorf("pipeline: stage %s: %w", s.Name(), err)
		}
	}
	return nil
}

// Invert runs the stack in reverse over a received update, reconstructing
// the dense vector the Aggregator consumes. The incoming encoding must
// match what the stack produces — a client cannot smuggle an encoding the
// server did not configure.
func (p *Pipeline) Invert(u *Update) error {
	if p != nil {
		for i := len(p.stages) - 1; i >= 0; i-- {
			s := p.stages[i]
			if err := s.Invert(u); err != nil {
				return fmt.Errorf("pipeline: invert %s: %w", s.Name(), err)
			}
		}
	}
	if u.Enc != wire.EncDense {
		return fmt.Errorf("pipeline: update arrived %s-encoded but the configured stack produces no such encoding: %w", u.Enc, ErrSpec)
	}
	return nil
}
