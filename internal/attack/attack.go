// Package attack implements the two privacy attacks the paper cites as the
// motivation for differential privacy in federated learning: gradient
// inversion (Geiping et al. 2020, the paper's [14]: "one can recover an
// original image with high accuracy using only gradients") and membership
// inference (Shokri et al. 2017, the paper's [26]). They serve as the
// adversary in tests and examples showing that the Laplace output
// perturbation of Section III-B actually blunts both attacks.
package attack

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// InvertLinearGradient reconstructs the training input of a *single-sample*
// cross-entropy step on a linear model from the weight and bias gradients
// alone — the closed-form core of gradient-inversion attacks.
//
// For logits = W·x + b and label y, the gradients are
//
//	∂L/∂W = (p − e_y)·xᵀ,   ∂L/∂b = (p − e_y),
//
// so every row k of ∂L/∂W is a scalar multiple of x, and dividing by
// (∂L/∂b)_k recovers x exactly. The most confident row (largest |∂L/∂b|)
// is used for numerical stability. It also recovers the label: the one
// coordinate of ∂L/∂b that is negative is the true class.
func InvertLinearGradient(gradW, gradB *tensor.Tensor) (x []float64, label int, err error) {
	if gradW.Rank() != 2 || gradB.Rank() != 1 || gradW.Dim(0) != gradB.Dim(0) {
		return nil, 0, fmt.Errorf("attack: need gradW [K,D] and gradB [K], got %v and %v", gradW.Shape(), gradB.Shape())
	}
	k := gradB.Dim(0)
	best, bestAbs := -1, 0.0
	label = -1
	labelVal := 0.0
	for i := 0; i < k; i++ {
		v := gradB.At(i)
		if a := math.Abs(v); a > bestAbs {
			best, bestAbs = i, a
		}
		// The true class is the unique coordinate with p_y − 1 < 0.
		if v < labelVal {
			labelVal = v
			label = i
		}
	}
	if best < 0 || bestAbs == 0 {
		return nil, 0, fmt.Errorf("attack: bias gradient is zero; nothing to invert")
	}
	row := gradW.Row(best)
	x = make([]float64, row.Size())
	scale := gradB.At(best)
	for i := range x {
		x[i] = row.Data()[i] / scale
	}
	return x, label, nil
}

// GradientsOf runs one forward/backward pass of model on a single sample
// and returns the last Linear layer's weight and bias gradients — what a
// curious server observes when a client of a linear model uploads its
// one-step update. The model must end in an nn.Linear.
func GradientsOf(model *nn.Sequential, x *tensor.Tensor, label int) (gradW, gradB *tensor.Tensor, err error) {
	var last *nn.Linear
	for _, l := range model.Layers {
		if lin, ok := l.(*nn.Linear); ok {
			last = lin
		}
	}
	if last == nil {
		return nil, nil, fmt.Errorf("attack: model has no Linear layer")
	}
	batch := x.Reshape(append([]int{1}, x.Shape()...)...)
	logits := model.Forward(batch)
	_, d := nn.CrossEntropy(logits, []int{label})
	nn.BackwardParams(model, d)
	return last.Weight.Grad, last.Bias.Grad, nil
}

// ReconstructionError returns the normalized root-mean-square error
// between the original input and its reconstruction: 0 is a perfect
// recovery; ~1 means the reconstruction carries no signal beyond scale.
func ReconstructionError(original, reconstructed []float64) float64 {
	if len(original) != len(reconstructed) {
		panic("attack: length mismatch")
	}
	var se, ref float64
	for i := range original {
		d := original[i] - reconstructed[i]
		se += d * d
		ref += original[i] * original[i]
	}
	if ref == 0 {
		return math.Sqrt(se)
	}
	return math.Sqrt(se / ref)
}

// MembershipResult summarizes a loss-threshold membership-inference attack.
type MembershipResult struct {
	Threshold float64 // loss threshold that maximizes advantage
	TPR       float64 // members correctly identified
	FPR       float64 // non-members wrongly identified
	Advantage float64 // TPR − FPR; 0 means the attack learned nothing
}

// MembershipInference mounts the classic loss-threshold attack: samples
// whose loss under the model falls below a threshold are declared training
// members. memberLosses and nonMemberLosses are the per-sample losses of
// known members and non-members; the attack picks the threshold that
// maximizes its advantage, which is what an adversary with calibration
// data would do.
func MembershipInference(memberLosses, nonMemberLosses []float64) MembershipResult {
	if len(memberLosses) == 0 || len(nonMemberLosses) == 0 {
		panic("attack: need losses for both populations")
	}
	// Candidate thresholds: all observed losses.
	cands := make([]float64, 0, len(memberLosses)+len(nonMemberLosses))
	cands = append(cands, memberLosses...)
	cands = append(cands, nonMemberLosses...)
	sort.Float64s(cands)
	best := MembershipResult{}
	for _, thr := range cands {
		tp, fp := 0, 0
		for _, l := range memberLosses {
			if l <= thr {
				tp++
			}
		}
		for _, l := range nonMemberLosses {
			if l <= thr {
				fp++
			}
		}
		tpr := float64(tp) / float64(len(memberLosses))
		fpr := float64(fp) / float64(len(nonMemberLosses))
		if adv := tpr - fpr; adv > best.Advantage {
			best = MembershipResult{Threshold: thr, TPR: tpr, FPR: fpr, Advantage: adv}
		}
	}
	return best
}

// PerSampleLosses evaluates the model's loss on each sample of the given
// inputs, one forward pass per sample.
func PerSampleLosses(model nn.Module, xs []*tensor.Tensor, labels []int) []float64 {
	if len(xs) != len(labels) {
		panic("attack: inputs and labels length mismatch")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		batch := x.Reshape(append([]int{1}, x.Shape()...)...)
		logits := model.Forward(batch)
		l, _ := nn.CrossEntropy(logits, []int{labels[i]})
		out[i] = l
	}
	return out
}
