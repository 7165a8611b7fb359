package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func randT(r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	r.FillNormal(t.Data(), 0, 1)
	return t
}

func TestLinearForwardShape(t *testing.T) {
	r := rng.New(1)
	l := NewLinear(4, 3, r)
	y := l.Forward(randT(r, 5, 4))
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("Linear output shape %v", y.Shape())
	}
}

func TestLinearForwardValues(t *testing.T) {
	r := rng.New(2)
	l := NewLinear(2, 2, r)
	// Fix weights manually: W = [[1,2],[3,4]], b = [10, 20]
	copy(l.Weight.Value.Data(), []float64{1, 2, 3, 4})
	copy(l.Bias.Value.Data(), []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := l.Forward(x)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Linear values wrong: %v", y.Data())
	}
}

func TestReLU(t *testing.T) {
	a := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 4)
	y := a.Forward(x)
	want := []float64{0, 0, 2, 0}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("ReLU forward %v", y.Data())
		}
	}
	dy := tensor.FromSlice([]float64{5, 5, 5, 5}, 4)
	dx := a.Backward(dy)
	wantG := []float64{0, 0, 5, 0}
	for i, v := range wantG {
		if dx.Data()[i] != v {
			t.Fatalf("ReLU backward %v", dx.Data())
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := randT(rng.New(3), 2, 3, 4, 4)
	y := f.Forward(x)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("Flatten shape %v", y.Shape())
	}
	dx := f.Backward(y)
	if dx.Rank() != 4 || dx.Dim(3) != 4 {
		t.Fatalf("Flatten backward shape %v", dx.Shape())
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over K classes → loss = ln K.
	logits := tensor.New(2, 4)
	loss, grad := CrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform CE loss %v, want ln4=%v", loss, math.Log(4))
	}
	// Gradient rows must sum to zero (softmax minus one-hot, both sum to 1).
	for i := 0; i < 2; i++ {
		s := grad.Row(i).Sum()
		if math.Abs(s) > 1e-12 {
			t.Fatalf("CE grad row %d sums to %v", i, s)
		}
	}
}

func TestCrossEntropyGradientNumerical(t *testing.T) {
	r := rng.New(4)
	logits := randT(r, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := CrossEntropy(logits, labels)
	const eps = 1e-6
	for s := 0; s < 15; s++ {
		i := r.Intn(logits.Size())
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data()[i]) > 1e-5 {
			t.Fatalf("CE grad mismatch at %d: %v vs %v", i, num, grad.Data()[i])
		}
	}
}

func TestCrossEntropyNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 0, -1000}, 1, 3)
	loss, grad := CrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("CE not stable: loss = %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data() {
		if math.IsNaN(g) {
			t.Fatal("CE gradient NaN")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(5)
	p := Softmax(randT(r, 4, 7))
	for i := 0; i < 4; i++ {
		s := p.Row(i).Sum()
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 0, 0,
		0, 2, 0,
		0, 0, 3,
		9, 0, 0,
	}, 4, 3)
	acc := Accuracy(logits, []int{0, 1, 2, 1})
	if acc != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", acc)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty batch accuracy should be 0")
	}
}

// fullModelLoss computes CE loss of a model on fixed data.
func fullModelLoss(m Module, x *tensor.Tensor, labels []int) float64 {
	loss, _ := CrossEntropy(m.Forward(x), labels)
	return loss
}

// TestFullCNNGradientNumerical end-to-end gradient check of the paper's CNN
// (small widths) against central finite differences.
func TestFullCNNGradientNumerical(t *testing.T) {
	r := rng.New(6)
	m := NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, r)
	x := randT(r, 2, 1, 8, 8)
	labels := []int{0, 2}

	logits := m.Forward(x)
	_, dlogits := CrossEntropy(logits, labels)
	m.Backward(dlogits)

	params := m.Params()
	const eps = 1e-5
	checked := 0
	for _, p := range params {
		for s := 0; s < 4; s++ {
			i := r.Intn(p.Value.Size())
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			lp := fullModelLoss(m, x, labels)
			p.Value.Data()[i] = orig - eps
			lm := fullModelLoss(m, x, labels)
			p.Value.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			got := p.Grad.Data()[i]
			if math.Abs(num-got) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("param %s idx %d: numeric %v analytic %v", p.Name, i, num, got)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestMLPGradientNumerical(t *testing.T) {
	r := rng.New(7)
	m := NewMLP(10, []int{6, 5}, 4, r)
	x := randT(r, 3, 10)
	labels := []int{1, 0, 3}
	_, dlogits := CrossEntropy(m.Forward(x), labels)
	m.Backward(dlogits)
	const eps = 1e-6
	for _, p := range m.Params() {
		for s := 0; s < 5; s++ {
			i := r.Intn(p.Value.Size())
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			lp := fullModelLoss(m, x, labels)
			p.Value.Data()[i] = orig - eps
			lm := fullModelLoss(m, x, labels)
			p.Value.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data()[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s idx %d: numeric %v analytic %v", p.Name, i, num, p.Grad.Data()[i])
			}
		}
	}
}

func TestFlattenParamsSetParamsRoundTrip(t *testing.T) {
	r := rng.New(8)
	m := NewMLP(6, []int{5}, 3, r)
	v := FlattenParams(m, nil)
	if len(v) != NumParams(m) {
		t.Fatalf("flat length %d != NumParams %d", len(v), NumParams(m))
	}
	// Perturb, write back, read again.
	for i := range v {
		v[i] += 1.5
	}
	SetParams(m, v)
	v2 := FlattenParams(m, nil)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSetParamsLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SetParams(NewMLP(4, nil, 2, rng.New(1)), make([]float64, 3))
}

func TestCloneInto(t *testing.T) {
	r := rng.New(10)
	a := NewMLP(4, []int{3}, 2, r)
	b := NewMLP(4, []int{3}, 2, r)
	CloneInto(b, a)
	va, vb := FlattenParams(a, nil), FlattenParams(b, nil)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("CloneInto did not copy parameters")
		}
	}
}

func TestCNNOutputShape(t *testing.T) {
	r := rng.New(11)
	m := NewCNN(CNNConfig{InChannels: 3, Height: 16, Width: 16, Classes: 10, Conv1: 4, Conv2: 4, Kernel: 5, Hidden: 16}, r)
	y := m.Forward(randT(r, 2, 3, 16, 16))
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("CNN output shape %v", y.Shape())
	}
}

func TestCNNDefaultsArePaperScale(t *testing.T) {
	cfg := CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10}.withDefaults()
	if cfg.Conv1 != 32 || cfg.Conv2 != 64 || cfg.Kernel != 5 || cfg.Hidden != 512 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// A two-layer MLP must be able to fit a tiny XOR-like dataset: a smoke test
// that the whole fwd/bwd/update loop actually learns.
func TestMLPLearnsXOR(t *testing.T) {
	r := rng.New(12)
	m := NewMLP(2, []int{8}, 2, r)
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	lr := 0.5
	for step := 0; step < 500; step++ {
		logits := m.Forward(x)
		_, d := CrossEntropy(logits, labels)
		m.Backward(d)
		for _, p := range m.Params() {
			p.Value.AXPY(-lr, p.Grad)
		}
	}
	if acc := Accuracy(m.Forward(x), labels); acc != 1.0 {
		t.Fatalf("MLP failed to fit XOR: accuracy %v", acc)
	}
}

// BenchmarkCNNForwardBackward times one training step as a client runs it
// (Forward → CrossEntropy → BackwardParams, then an SGD update of
// ParamVector from GradVector — no copy in or out) on a kept replica: the
// historical 16-sample CNN, and the two models the repo's benchmark trains
// at their real batch sizes. B/op and allocs/op are the steady-state
// figures TestTrainingStepAllocationGate holds down.
func BenchmarkCNNForwardBackward(b *testing.B) {
	for _, c := range []struct {
		name    string
		m       *Sequential
		n       int
		inShape []int
	}{
		{"cnn8x16_batch16", NewCNN(CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 8, Conv2: 16, Kernel: 5, Hidden: 64}, rng.New(1)), 16, []int{1, 28, 28}},
		{"bench_cnn4x8_batch64", NewCNN(CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1)), 64, []int{1, 28, 28}},
		{"bench_mlp784x1280_batch16", NewMLP(784, []int{1280}, 10, rng.New(1)), 16, []int{1, 28, 28}},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := randT(rng.New(2), append([]int{c.n}, c.inShape...)...)
			labels := make([]int, c.n)
			var ce CrossEntropyLoss
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, d := ce.Loss(c.m.Forward(x), labels)
				BackwardParams(c.m, d)
				w := ParamVector(c.m)
				for j, g := range GradVector(c.m) {
					w[j] -= 1e-3 * g
				}
			}
		})
	}
}

// TestBackwardParamsBitIdentical: skipping the input gradient nobody reads
// leaves every parameter gradient exactly as Backward computes it — for a
// model that opens with a Conv2D, one that opens with Flatten→Linear, and
// a non-Sequential module (which falls back to Backward).
func TestBackwardParamsBitIdentical(t *testing.T) {
	r := rng.New(11)
	cases := []struct {
		name   string
		m      Module
		x      *tensor.Tensor
		labels []int
	}{
		{"cnn", NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, r),
			randT(r, 4, 1, 8, 8), []int{0, 2, 1, 1}},
		{"mlp", NewMLP(10, []int{6, 5}, 4, r), randT(r, 3, 10), []int{1, 0, 3}},
		{"bare-linear", NewLinear(10, 4, r), randT(r, 3, 10), []int{1, 0, 3}},
	}
	for _, c := range cases {
		grads := func(backward func(dy *tensor.Tensor)) []float64 {
			_, d := CrossEntropy(c.m.Forward(c.x), c.labels)
			backward(d)
			return FlattenGrads(c.m, nil)
		}
		want := grads(func(dy *tensor.Tensor) { c.m.Backward(dy) })
		got := grads(func(dy *tensor.Tensor) { BackwardParams(c.m, dy) })
		nonzero := false
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: gradient %d is %v via BackwardParams, %v via Backward", c.name, i, got[i], want[i])
			}
			nonzero = nonzero || want[i] != 0
		}
		if !nonzero {
			t.Fatalf("%s: all-zero gradient proves nothing", c.name)
		}
	}
}

// TestReLUBranchlessMatchesCompare: the bit-mask rectifier agrees with
// `if v > 0` on every class of float64, and Backward passes the upstream
// gradient's exact bits (NaN payloads included) where the input was
// positive and +0 elsewhere.
func TestReLUBranchlessMatchesCompare(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000), 2.5e-308}
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		in = append(in, r.Normal(0, 1))
	}
	a := NewReLU()
	x := tensor.FromSlice(in, len(in))
	out := a.Forward(x)
	dy := tensor.New(len(in))
	for i := range in {
		dy.Data()[i] = math.Float64frombits(0x7ff8000000000000 + uint64(i)) // NaNs with distinct payloads
	}
	dx := a.Backward(dy)
	for i, v := range in {
		want, wantG := 0.0, 0.0
		if v > 0 {
			want, wantG = v, dy.Data()[i]
		}
		if math.Float64bits(out.Data()[i]) != math.Float64bits(want) {
			t.Fatalf("ReLU(%v) = %v (%#x), want %v", v, out.Data()[i], math.Float64bits(out.Data()[i]), want)
		}
		if math.Float64bits(dx.Data()[i]) != math.Float64bits(wantG) {
			t.Fatalf("ReLU'(%v) passed %#x, want %#x", v, math.Float64bits(dx.Data()[i]), math.Float64bits(wantG))
		}
	}
}
