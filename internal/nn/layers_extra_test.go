package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func numericalCheck(t *testing.T, m Module, x *tensor.Tensor, labels []int, samples int, tol float64) {
	t.Helper()
	r := rng.New(99)
	logits := m.Forward(x)
	_, d := CrossEntropy(logits, labels)
	dx := m.Backward(d).Clone() // kept across the Forward calls below
	const eps = 1e-6
	loss := func() float64 {
		l, _ := CrossEntropy(m.Forward(x), labels)
		return l
	}
	for s := 0; s < samples; s++ {
		i := r.Intn(x.Size())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss()
		x.Data()[i] = orig - eps
		lm := loss()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: numeric %v analytic %v", i, num, dx.Data()[i])
		}
	}
}

func TestTanhForwardBackward(t *testing.T) {
	a := NewTanh()
	x := tensor.FromSlice([]float64{0, 1, -1}, 3)
	y := a.Forward(x)
	if y.Data()[0] != 0 || math.Abs(y.Data()[1]-math.Tanh(1)) > 1e-15 {
		t.Fatalf("tanh forward %v", y.Data())
	}
	dy := tensor.FromSlice([]float64{1, 1, 1}, 3)
	dx := a.Backward(dy)
	// At 0: derivative 1. At ±1: 1 − tanh(1)².
	if math.Abs(dx.Data()[0]-1) > 1e-15 {
		t.Fatalf("tanh backward at 0: %v", dx.Data()[0])
	}
	want := 1 - math.Tanh(1)*math.Tanh(1)
	if math.Abs(dx.Data()[1]-want) > 1e-15 {
		t.Fatalf("tanh backward at 1: %v want %v", dx.Data()[1], want)
	}
}

func TestSigmoidForwardBackward(t *testing.T) {
	a := NewSigmoid()
	x := tensor.FromSlice([]float64{0}, 1)
	y := a.Forward(x)
	if math.Abs(y.Data()[0]-0.5) > 1e-15 {
		t.Fatalf("sigmoid(0) = %v", y.Data()[0])
	}
	dx := a.Backward(tensor.FromSlice([]float64{1}, 1))
	if math.Abs(dx.Data()[0]-0.25) > 1e-15 {
		t.Fatalf("sigmoid'(0) = %v, want 0.25", dx.Data()[0])
	}
}

func TestTanhModelNumericalGradient(t *testing.T) {
	r := rng.New(1)
	m := NewSequential(NewFlatten(), NewLinear(8, 6, r), NewTanh(), NewLinear(6, 3, r))
	x := randT(r, 2, 8)
	numericalCheck(t, m, x, []int{0, 2}, 12, 1e-4)
}

func TestSigmoidModelNumericalGradient(t *testing.T) {
	r := rng.New(2)
	m := NewSequential(NewFlatten(), NewLinear(8, 6, r), NewSigmoid(), NewLinear(6, 3, r))
	x := randT(r, 2, 8)
	numericalCheck(t, m, x, []int{1, 0}, 12, 1e-4)
}

func TestDropoutTrainingStatistics(t *testing.T) {
	r := rng.New(3)
	d := NewDropout(0.4, r)
	x := tensor.New(10000)
	x.Fill(1)
	y := d.Forward(x)
	zeros, scaled := 0, 0
	scale := 1 / 0.6
	for _, v := range y.Data() {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-scale) < 1e-12:
			scaled++
		default:
			t.Fatalf("dropout produced unexpected value %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if math.Abs(frac-0.4) > 0.03 {
		t.Fatalf("dropout rate %v, want ~0.4", frac)
	}
	// E[output] ≈ E[input] thanks to inverted scaling.
	if mean := y.Sum() / 10000; math.Abs(mean-1) > 0.05 {
		t.Fatalf("inverted dropout mean %v, want ~1", mean)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(0.9, rng.New(4))
	d.Train = false
	x := tensor.FromSlice([]float64{1, 2, 3}, 3)
	y := d.Forward(x)
	if !y.EqualWithin(x, 0) {
		t.Fatal("eval-mode dropout is not identity")
	}
	dy := tensor.FromSlice([]float64{5, 5, 5}, 3)
	if !d.Backward(dy).EqualWithin(dy, 0) {
		t.Fatal("eval-mode dropout backward is not identity")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := NewDropout(0.5, rng.New(5))
	x := tensor.New(1000)
	x.Fill(1)
	y := d.Forward(x)
	dy := tensor.New(1000)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i := range dx.Data() {
		// Gradient flows exactly where activations survived.
		if (dx.Data()[i] == 0) != (y.Data()[i] == 0) {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}

func TestDropoutValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on p=1")
		}
	}()
	NewDropout(1, rng.New(1))
}

// TestEvalTrainModeRecursion: EvalMode and TrainMode reach every Dropout,
// nested ones included, and StatefulLayer finds the first that keeps
// state between steps — in training mode, at P > 0 — wherever it sits.
func TestEvalTrainModeRecursion(t *testing.T) {
	r := rng.New(6)
	m := NewSequential(
		NewFlatten(),
		NewLinear(4, 4, r),
		NewDropout(0.5, r),
		NewSequential(NewDropout(0.3, r)),
	)
	EvalMode(m)
	d1 := m.Layers[2].(*Dropout)
	d2 := m.Layers[3].(*Sequential).Layers[0].(*Dropout)
	if d1.Train || d2.Train {
		t.Fatal("EvalMode did not reach all dropouts")
	}
	if l := StatefulLayer(m); l != nil {
		t.Fatalf("StatefulLayer in evaluation mode: %T, want none", l)
	}
	TrainMode(m)
	if !d1.Train || !d2.Train {
		t.Fatal("TrainMode did not reach all dropouts")
	}
	if l := StatefulLayer(m); l != d1 {
		t.Fatalf("StatefulLayer in training mode: %v, want the first dropout", l)
	}
	d1.P = 0
	if l := StatefulLayer(m); l != d2 {
		t.Fatalf("StatefulLayer past a dropout at P = 0: %v, want the nested one", l)
	}
}

func TestAvgPoolForward(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := NewAvgPool2D(2, 2)
	y := p.Forward(x)
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("avgpool %v, want %v", y.Data(), want)
		}
	}
}

func TestAvgPoolBackwardConservesMass(t *testing.T) {
	r := rng.New(7)
	p := NewAvgPool2D(2, 2)
	x := randT(r, 1, 2, 4, 4)
	p.Forward(x)
	dy := randT(r, 1, 2, 2, 2)
	dx := p.Backward(dy)
	if math.Abs(dx.Sum()-dy.Sum()) > 1e-12 {
		t.Fatalf("avgpool backward mass %v, want %v", dx.Sum(), dy.Sum())
	}
}

func TestAvgPoolModelNumericalGradient(t *testing.T) {
	r := rng.New(8)
	m := NewSequential(
		NewConv2D(1, 2, 3, 1, 1, r),
		NewAvgPool2D(2, 2),
		NewFlatten(),
		NewLinear(2*3*3, 3, r),
	)
	x := randT(r, 2, 1, 6, 6)
	numericalCheck(t, m, x, []int{0, 1}, 12, 1e-3)
}
