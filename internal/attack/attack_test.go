package attack

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestGradientInversionRecoversInputExactly is the paper's [14] in
// miniature: from one gradient of a linear model, the attacker recovers
// the private training image (and its label) essentially exactly.
func TestGradientInversionRecoversInputExactly(t *testing.T) {
	r := rng.New(1)
	model := nn.NewLinearModel(28*28, 10, r)
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 4, Test: 1, Seed: 2})
	x, y := train.Sample(0)

	gradW, gradB, err := GradientsOf(model, x, y)
	if err != nil {
		t.Fatal(err)
	}
	rec, recLabel, err := InvertLinearGradient(gradW, gradB)
	if err != nil {
		t.Fatal(err)
	}
	if recLabel != y {
		t.Fatalf("label recovered as %d, want %d", recLabel, y)
	}
	errNorm := ReconstructionError(x.Data(), rec)
	if errNorm > 1e-8 {
		t.Fatalf("reconstruction error %v, want ~0 (exact recovery)", errNorm)
	}
}

// TestDPDefeatsGradientInversion shows the defense: with Laplace noise at
// a strong privacy level on the gradients, the reconstruction degrades by
// orders of magnitude.
func TestDPDefeatsGradientInversion(t *testing.T) {
	r := rng.New(3)
	model := nn.NewLinearModel(28*28, 10, r)
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 4, Test: 1, Seed: 4})
	x, y := train.Sample(1)

	gradW, gradB, err := GradientsOf(model, x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Clean attack first.
	clean, _, err := InvertLinearGradient(gradW, gradB)
	if err != nil {
		t.Fatal(err)
	}
	cleanErr := ReconstructionError(x.Data(), clean)

	// Perturb what the adversary sees, as the output-perturbation method
	// does before anything leaves the client.
	mech, err := dp.NewLaplace(1.0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	noisyW := gradW.Clone()
	noisyB := gradB.Clone()
	mech.Perturb(noisyW.Data(), 0.1)
	mech.Perturb(noisyB.Data(), 0.1)
	noisy, _, err := InvertLinearGradient(noisyW, noisyB)
	if err != nil {
		t.Fatal(err)
	}
	noisyErr := ReconstructionError(x.Data(), noisy)
	if noisyErr < 100*cleanErr && noisyErr < 0.5 {
		t.Fatalf("DP did not degrade inversion: clean %v, noisy %v", cleanErr, noisyErr)
	}
}

func TestInvertLinearGradientValidation(t *testing.T) {
	if _, _, err := InvertLinearGradient(tensor.New(3, 4), tensor.New(2)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, _, err := InvertLinearGradient(tensor.New(3, 4), tensor.New(3)); err == nil {
		t.Fatal("zero gradient accepted")
	}
}

func TestGradientsOfRequiresLinear(t *testing.T) {
	model := nn.NewSequential(nn.NewReLU())
	if _, _, err := GradientsOf(model, tensor.New(1, 2, 2), 0); err == nil {
		t.Fatal("model without Linear accepted")
	}
}

func TestReconstructionErrorProperties(t *testing.T) {
	a := []float64{1, 2, 3}
	if e := ReconstructionError(a, []float64{1, 2, 3}); e != 0 {
		t.Fatalf("identical vectors error %v", e)
	}
	if e := ReconstructionError(a, []float64{0, 0, 0}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("zero reconstruction error %v, want 1", e)
	}
}

func TestMembershipInferencePerfectSeparation(t *testing.T) {
	res := MembershipInference([]float64{0.1, 0.2}, []float64{1.0, 2.0})
	if res.Advantage != 1 || res.TPR != 1 || res.FPR != 0 {
		t.Fatalf("separable populations: %+v", res)
	}
}

func TestMembershipInferenceNoSignal(t *testing.T) {
	same := []float64{0.5, 0.5, 0.5}
	res := MembershipInference(same, same)
	if res.Advantage > 1e-12 {
		t.Fatalf("identical populations should give ~0 advantage: %+v", res)
	}
}

// TestMembershipAttackOnOverfitModel trains a model to overfit a tiny
// member set and verifies the loss-threshold attack gains real advantage —
// then that the advantage shrinks when the model is trained under strong
// DP noise.
func TestMembershipAttackOnOverfitModel(t *testing.T) {
	train, holdout := dataset.MNIST(dataset.SynthConfig{Train: 32, Test: 32, Seed: 6, Noise: 0.4})
	r := rng.New(7)

	fit := func(noiseEps float64) float64 {
		model := nn.NewMLP(28*28, []int{32}, 10, rng.New(8))
		w, g, v := nn.ParamVector(model), nn.GradVector(model), make([]float64, nn.NumParams(model))
		loader := dataset.NewLoader(train, 8, true, r.Split())
		var mech dp.Mechanism = dp.None{}
		if !math.IsInf(noiseEps, 1) {
			lap, err := dp.NewLaplace(noiseEps, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			mech = lap
		}
		for epoch := 0; epoch < 60; epoch++ {
			loader.Reset()
			for {
				b, ok := loader.Next()
				if !ok {
					break
				}
				logits := model.Forward(b.X)
				_, d := nn.CrossEntropy(logits, b.Labels)
				model.Backward(d)
				// DP-style noisy training: perturb gradients before the step.
				for _, p := range model.Params() {
					mech.Perturb(p.Grad.Data(), 0.05)
				}
				for i := range w { // momentum SGD: lr 0.1, momentum 0.9
					v[i] = 0.9*v[i] + g[i]
					w[i] -= 0.1 * v[i]
				}
			}
		}
		memberX := make([]*tensor.Tensor, train.Len())
		memberY := make([]int, train.Len())
		for i := 0; i < train.Len(); i++ {
			memberX[i], memberY[i] = train.Sample(i)
		}
		nonX := make([]*tensor.Tensor, holdout.Len())
		nonY := make([]int, holdout.Len())
		for i := 0; i < holdout.Len(); i++ {
			nonX[i], nonY[i] = holdout.Sample(i)
		}
		res := MembershipInference(
			PerSampleLosses(model, memberX, memberY),
			PerSampleLosses(model, nonX, nonY),
		)
		return res.Advantage
	}

	overfit := fit(math.Inf(1))
	if overfit < 0.2 {
		t.Fatalf("overfit model should leak membership: advantage %v", overfit)
	}
	private := fit(0.5)
	if private >= overfit {
		t.Fatalf("DP training should reduce membership advantage: %v (DP) vs %v (clean)", private, overfit)
	}
}

func TestMembershipInferenceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty populations")
		}
	}()
	MembershipInference(nil, []float64{1})
}

func BenchmarkGradientInversion(b *testing.B) {
	r := rng.New(1)
	model := nn.NewLinearModel(28*28, 10, r)
	train, _ := dataset.MNIST(dataset.SynthConfig{Train: 2, Test: 1, Seed: 2})
	x, y := train.Sample(0)
	gradW, gradB, err := GradientsOf(model, x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := InvertLinearGradient(gradW, gradB); err != nil {
			b.Fatal(err)
		}
	}
}
