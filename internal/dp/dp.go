// Package dp implements the differential-privacy machinery of APPFL
// Section III-B: the Laplace output-perturbation mechanism, gradient
// clipping, the per-algorithm sensitivity rules used to derive the noise
// scale automatically, and a per-client privacy accountant. A Gaussian
// mechanism is included as the "more advanced schemes" extension the paper
// lists as future work.
package dp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Typed configuration errors returned by the mechanism constructors.
// Library code never panics on bad user config: these surface through
// core.Config.Validate and the pipeline spec parser instead.
var (
	ErrEpsilon = errors.New("dp: epsilon must be positive (use +Inf for non-private)")
	ErrDelta   = errors.New("dp: delta must be in (0,1)")
)

// Epsilon is the privacy budget ε̄ of Definition 1. math.Inf(1) disables
// noise (the paper's non-private setting ε̄ = ∞).
type Epsilon = float64

// Mechanism perturbs a model update in place before it is uploaded.
type Mechanism interface {
	// Perturb adds noise to v. sensitivity is the Δ̄ bound supplied by the
	// algorithm's sensitivity rule.
	Perturb(v []float64, sensitivity float64)
	// Name identifies the mechanism in logs and result tables.
	Name() string
}

// Laplace is the output-perturbation mechanism of Eq. (6): each coordinate
// receives independent Laplace(0, Δ̄/ε̄) noise.
type Laplace struct {
	Eps Epsilon
	R   *rng.RNG
}

// NewLaplace builds the mechanism. eps must be positive (use math.Inf(1)
// for the non-private setting); a non-positive eps returns ErrEpsilon.
func NewLaplace(eps Epsilon, r *rng.RNG) (*Laplace, error) {
	if math.IsNaN(eps) || eps <= 0 {
		return nil, fmt.Errorf("%w, got %v", ErrEpsilon, eps)
	}
	return &Laplace{Eps: eps, R: r}, nil
}

// Perturb adds Laplace noise with scale sensitivity/ε̄ to every coordinate.
// With ε̄ = ∞ or zero sensitivity it is a no-op.
func (l *Laplace) Perturb(v []float64, sensitivity float64) {
	if math.IsInf(l.Eps, 1) || sensitivity == 0 {
		return
	}
	l.R.AddLaplace(v, 0, sensitivity/l.Eps)
}

// Name returns a human-readable identifier.
func (l *Laplace) Name() string {
	if math.IsInf(l.Eps, 1) {
		return "laplace(eps=inf)"
	}
	return fmt.Sprintf("laplace(eps=%g)", l.Eps)
}

// Gaussian implements (ε, δ)-DP output perturbation with noise stddev
// σ = Δ̄·sqrt(2 ln(1.25/δ))/ε (Dwork & Roth, Appendix A). Included as the
// paper's planned "more advanced" mechanism.
type Gaussian struct {
	Eps   Epsilon
	Delta float64
	R     *rng.RNG
}

// NewGaussian builds the mechanism; eps must be positive and delta in
// (0,1). Bad parameters return ErrEpsilon / ErrDelta.
func NewGaussian(eps Epsilon, delta float64, r *rng.RNG) (*Gaussian, error) {
	if math.IsNaN(eps) || eps <= 0 {
		return nil, fmt.Errorf("%w, got %v", ErrEpsilon, eps)
	}
	if math.IsNaN(delta) || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("%w, got %v", ErrDelta, delta)
	}
	return &Gaussian{Eps: eps, Delta: delta, R: r}, nil
}

// Perturb adds Gaussian noise calibrated to (ε, δ)-DP.
func (g *Gaussian) Perturb(v []float64, sensitivity float64) {
	if math.IsInf(g.Eps, 1) || sensitivity == 0 {
		return
	}
	g.R.AddNormal(v, 0, sensitivity*math.Sqrt(2*math.Log(1.25/g.Delta))/g.Eps)
}

// Name returns a human-readable identifier.
func (g *Gaussian) Name() string {
	return fmt.Sprintf("gaussian(eps=%g,delta=%g)", g.Eps, g.Delta)
}

// None is the identity mechanism (ε̄ = ∞ shortcut that also skips RNG use).
type None struct{}

// Perturb is a no-op.
func (None) Perturb([]float64, float64) {}

// Name returns "none".
func (None) Name() string { return "none" }

// ObjectiveNoise draws the per-round noise vector of the objective
// perturbation method (Chaudhuri, Monteleoni & Sarwate 2011; the paper's
// planned advanced scheme, Section III-B): instead of perturbing the
// released parameters, the client perturbs its local objective with a
// random linear term ⟨b, z⟩, which manifests as the constant vector b
// added to every gradient during the round. The release itself then needs
// no output noise. As shown in [27]/[28], this yields more accurate
// learning in the convex regime.
func ObjectiveNoise(mech Mechanism, dim int, sensitivity float64) []float64 {
	v := make([]float64, dim)
	mech.Perturb(v, sensitivity)
	return v
}

// ClipL2 scales v in place so its Euclidean norm is at most c, and returns
// the norm before clipping. Clipping the gradient at C is what bounds the
// sensitivity (Section III-B: ‖g‖ ≤ C allows Δ̄ = 2C/(ρ+ζ)).
func ClipL2(v []float64, c float64) float64 {
	if c <= 0 {
		panic("dp: clip bound must be positive")
	}
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	norm := math.Sqrt(s)
	if norm > c {
		f := c / norm
		for i := range v {
			v[i] *= f
		}
	}
	return norm
}

// SensitivityRule computes the output sensitivity Δ̄ of one local update,
// "computed automatically based on the dataset and algorithm chosen"
// (Section IV-A).
type SensitivityRule interface {
	// Sensitivity returns Δ̄ for the current round's hyperparameters.
	Sensitivity() float64
}

// IADMMSensitivity is the rule for the IADMM family: with gradients clipped
// at C, successive proximal iterates differ by at most 2C/(ρ+ζ) per data
// change, so Δ̄ = 2C/(ρ+ζ) (Section III-B).
type IADMMSensitivity struct {
	Clip float64 // gradient clip bound C
	Rho  float64 // penalty ρt
	Zeta float64 // proximity ζt
}

// Sensitivity returns 2C/(ρ+ζ).
func (s IADMMSensitivity) Sensitivity() float64 {
	return 2 * s.Clip / (s.Rho + s.Zeta)
}

// FedAvgSensitivity is the rule for FedAvg: an SGD step moves the iterate
// by at most η‖g‖ ≤ ηC, so a single-entry data change perturbs the output
// by at most Δ̄ = 2Cη (the paper notes FedAvg's sensitivity "depends on the
// learning rate").
type FedAvgSensitivity struct {
	Clip float64 // gradient clip bound C
	LR   float64 // learning rate η
}

// Sensitivity returns 2Cη.
func (s FedAvgSensitivity) Sensitivity() float64 {
	return 2 * s.Clip * s.LR
}
