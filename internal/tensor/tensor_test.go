package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	r.FillNormal(t.Data(), 0, 1)
	return t
}

func TestNewShapesAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		x := New(c.shape...)
		if x.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, x.Size(), c.size)
		}
		if x.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, x.Rank(), len(c.shape))
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				x.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major: data should be 0..23 in order.
	for i, d := range x.Data() {
		if d != float64(i) {
			t.Fatalf("row-major layout broken at %d: %v", i, d)
		}
	}
	if x.At(1, 2, 3) != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", x.At(1, 2, 3))
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := a.Add(b).Data(); got[3] != 44 {
		t.Errorf("Add: %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 9 {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Mul(b).Data(); got[2] != 90 {
		t.Errorf("Mul: %v", got)
	}
	if got := a.Scale(2).Data(); got[1] != 4 {
		t.Errorf("Scale: %v", got)
	}
	c := a.Clone()
	c.AXPY(0.5, b)
	if c.At(0, 0) != 6 {
		t.Errorf("AXPY: %v", c.Data())
	}
	if d := a.Dot(b); d != 1*10+2*20+3*30+4*40 {
		t.Errorf("Dot = %v", d)
	}
	if n := FromSlice([]float64{3, 4}, 2).Norm2(); !almostEqual(n, 5, 1e-12) {
		t.Errorf("Norm2 = %v", n)
	}
	if s := a.Sum(); s != 10 {
		t.Errorf("Sum = %v", s)
	}
	if m := FromSlice([]float64{-7, 3}, 2).MaxAbs(); m != 7 {
		t.Errorf("MaxAbs = %v", m)
	}
	if i := FromSlice([]float64{1, 9, 9, 2}, 4).ArgMax(); i != 1 {
		t.Errorf("ArgMax = %d, want first max", i)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestRowAndSliceViews(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if r.At(0) != 4 || r.Size() != 3 {
		t.Fatalf("Row view wrong: %v", r.Data())
	}
	r.Set(40, 0)
	if x.At(1, 0) != 40 {
		t.Fatal("Row view does not share storage")
	}
	b := New(4, 2, 3, 3)
	s := b.Slice(2)
	if s.Rank() != 3 || s.Size() != 18 {
		t.Fatalf("Slice shape wrong: %v", s.Shape())
	}
	s.Data()[0] = 7
	if b.At(2, 0, 0, 0) != 7 {
		t.Fatal("Slice does not share storage")
	}
}

// Property: addition commutes.
func TestAddCommutative(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%32) + 1
		r := rng.New(seed)
		a, b := randTensor(r, n), randTensor(r, n)
		return a.Add(b).EqualWithin(b.Add(a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a+b)+c == a+(b+c) within FP tolerance.
func TestAddAssociative(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%32) + 1
		r := rng.New(seed)
		a, b, c := randTensor(r, n), randTensor(r, n), randTensor(r, n)
		return a.Add(b).Add(c).EqualWithin(a.Add(b.Add(c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and ||x||² = x·x.
func TestDotProperties(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%64) + 1
		r := rng.New(seed)
		a, b := randTensor(r, n), randTensor(r, n)
		if !almostEqual(a.Dot(b), b.Dot(a), 1e-9) {
			return false
		}
		nrm := a.Norm2()
		return almostEqual(nrm*nrm, a.Dot(a), 1e-8*(1+nrm*nrm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(5)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 29}} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.EqualWithin(want, 1e-9) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulParallelPathMatchesSerial(t *testing.T) {
	r := rng.New(6)
	// Big enough to trigger the parallel path (m*n*k >= 64k).
	a := randTensor(r, 64, 48)
	b := randTensor(r, 48, 64)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.EqualWithin(want, 1e-8) {
		t.Fatal("parallel MatMul diverges from naive")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(7)
	a := randTensor(r, 6, 4) // Aᵀ is [4,6]
	b := randTensor(r, 6, 5)
	got := MatMulTransA(a, b)
	want := naiveMatMul(Transpose(a), b)
	if !got.EqualWithin(want, 1e-9) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(8)
	a := randTensor(r, 3, 7)
	b := randTensor(r, 5, 7) // Bᵀ is [7,5]
	got := MatMulTransB(a, b)
	want := naiveMatMul(a, Transpose(b))
	if !got.EqualWithin(want, 1e-9) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rm, rn uint8) bool {
		m, n := int(rm%8)+1, int(rn%8)+1
		r := rng.New(seed)
		a := randTensor(r, m, n)
		return Transpose(Transpose(a)).EqualWithin(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOut(t *testing.T) {
	if ConvOut(28, 5, 1, 0) != 24 {
		t.Fatal("ConvOut(28,5,1,0)")
	}
	if ConvOut(28, 5, 1, 2) != 28 {
		t.Fatal("ConvOut(28,5,1,2)")
	}
	if ConvOut(24, 2, 2, 0) != 12 {
		t.Fatal("ConvOut(24,2,2,0)")
	}
}

// naiveConv2D is a direct 7-loop reference convolution for one sample.
func naiveConv2D(x, w, bias *Tensor, stride, pad int) *Tensor {
	cin, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	cout, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(cout, oh, ow)
	for co := 0; co < cout; co++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ci := 0; ci < cin; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += x.At(ci, iy, ix) * w.At(co, ci, ky, kx)
						}
					}
				}
				if bias != nil {
					s += bias.At(co)
				}
				out.Set(s, co, oy, ox)
			}
		}
	}
	return out
}

func TestConv2DForwardAgainstNaive(t *testing.T) {
	r := rng.New(9)
	cases := []struct{ n, cin, h, w, cout, k, stride, pad int }{
		{1, 1, 6, 6, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{3, 2, 7, 9, 5, 5, 2, 2},
		{1, 1, 5, 5, 2, 5, 1, 0},
	}
	for _, c := range cases {
		x := randTensor(r, c.n, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.k, c.k)
		b := randTensor(r, c.cout)
		y := Conv2DForward(x, w, b, c.stride, c.pad)
		for i := 0; i < c.n; i++ {
			want := naiveConv2D(x.Slice(i), w, b, c.stride, c.pad)
			if !y.Slice(i).EqualWithin(want, 1e-9) {
				t.Fatalf("Conv2DForward mismatch on case %+v sample %d", c, i)
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> == <x, Col2Im(y)>.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+r.Intn(3), 4+r.Intn(5), 4+r.Intn(5)
		k := 2 + r.Intn(2)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if ConvOut(h, k, stride, pad) <= 0 || ConvOut(w, k, stride, pad) <= 0 {
			continue
		}
		x := randTensor(r, c, h, w)
		cx := Im2Col(x, k, k, stride, pad)
		y := randTensor(r, cx.Dim(0), cx.Dim(1))
		lhs := cx.Dot(y)
		rhs := x.Dot(Col2Im(y, c, h, w, k, k, stride, pad))
		if !almostEqual(lhs, rhs, 1e-8*(1+math.Abs(lhs))) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

// TestConv2DBackwardNumerical verifies conv gradients with finite differences.
func TestConv2DBackwardNumerical(t *testing.T) {
	r := rng.New(11)
	n, cin, h, wd := 2, 2, 5, 5
	cout, k, stride, pad := 3, 3, 1, 1
	x := randTensor(r, n, cin, h, wd)
	w := randTensor(r, cout, cin, k, k)
	b := randTensor(r, cout)

	// Scalar loss = sum of conv output weighted by fixed random coefficients.
	coef := randTensor(r, n, cout, ConvOut(h, k, stride, pad), ConvOut(wd, k, stride, pad))
	loss := func() float64 {
		return Conv2DForward(x, w, b, stride, pad).Dot(coef)
	}
	dx, dw, db := Conv2DBackward(coef, x, w, true, true, stride, pad)

	const eps = 1e-6
	checkGrad := func(name string, param *Tensor, grad *Tensor, samples int) {
		for s := 0; s < samples; s++ {
			i := r.Intn(param.Size())
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			lp := loss()
			param.Data()[i] = orig - eps
			lm := loss()
			param.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, grad.Data()[i], 1e-4*(1+math.Abs(num))) {
				t.Fatalf("%s grad mismatch at %d: numeric %v analytic %v", name, i, num, grad.Data()[i])
			}
		}
	}
	checkGrad("x", x, dx, 20)
	checkGrad("w", w, dw, 20)
	checkGrad("b", b, db, 3)
}

func TestMaxPoolForward(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, argmax := MaxPool2DForward(x, 2, 2)
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("maxpool output %v, want %v", y.Data(), want)
		}
	}
	wantIdx := []int{5, 7, 13, 15}
	for i, v := range wantIdx {
		if argmax[i] != v {
			t.Fatalf("argmax %v, want %v", argmax, wantIdx)
		}
	}
}

func TestMaxPoolBackwardRoutesGradient(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	_, argmax := MaxPool2DForward(x, 2, 2)
	dy := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := MaxPool2DBackward(dy, argmax, []int{1, 1, 4, 4})
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("gradient routing wrong: %v", dx.Data())
	}
	if dx.Sum() != dy.Sum() {
		t.Fatal("maxpool backward must conserve gradient mass")
	}
}

func TestMaxPoolNumericalGradient(t *testing.T) {
	r := rng.New(12)
	x := randTensor(r, 2, 2, 6, 6)
	coef := randTensor(r, 2, 2, 3, 3)
	loss := func() float64 {
		y, _ := MaxPool2DForward(x, 2, 2)
		return y.Dot(coef)
	}
	_, argmax := MaxPool2DForward(x, 2, 2)
	dx := MaxPool2DBackward(coef, argmax, x.Shape())
	const eps = 1e-6
	for s := 0; s < 30; s++ {
		i := r.Intn(x.Size())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss()
		x.Data()[i] = orig - eps
		lm := loss()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if !almostEqual(num, dx.Data()[i], 1e-4*(1+math.Abs(num))) {
			t.Fatalf("maxpool grad mismatch at %d: numeric %v analytic %v", i, num, dx.Data()[i])
		}
	}
}

// The benchmarks below report MMAC/s (or Melem/s) and B/op, on the shapes
// the repo's benchmark actually runs — cnn_iiadmm's two convolutions at
// batch 64 and its Linear(1568,32), wide_*'s Linear(784,1280) at batch 16 —
// so a kernel change starts from a number, not a profile. The ref/ variants
// time the scalar loops of ref_test.go on the same operands.

func reportRate(b *testing.B, perOp int, unit string) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, unit)
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 128, 128)
	y := randTensor(r, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
	reportRate(b, 128*128*128, "MMAC/s")
}

// BenchmarkMatMulShapes: each of the three products on the training step's
// real shapes; [m,k,n] names the product, whatever way its operands are
// stored. zeroFrac plants exact zeros in A the way a post-ReLU gradient
// has them (MMAC/s counts the skipped multiply-adds too).
func BenchmarkMatMulShapes(b *testing.B) {
	type product func(dst, a, b *Tensor)
	ab := [2]product{func(d, x, y *Tensor) { MatMulInto(d, x, y) }, func(d, x, y *Tensor) { refMatMul(x, y) }}
	abt := [2]product{func(d, x, y *Tensor) { MatMulTransBInto(d, x, y) }, func(d, x, y *Tensor) { refMatMulTransB(x, y) }}
	atb := [2]product{func(d, x, y *Tensor) { MatMulTransAInto(d, x, y) }, func(d, x, y *Tensor) { refMatMulTransA(x, y) }}
	r := rng.New(1)
	for _, c := range []struct {
		name     string
		m, k, n  int
		zeroFrac float64
		f        [2]product // the kernel, the scalar loop
	}{
		{"AB/conv1_fwd", 4, 25, 784, 0, ab},
		{"AB/conv2_fwd", 8, 100, 196, 0, ab},
		{"AB/linear1568x32_dx", 64, 32, 1568, 0.5, ab},
		{"ABt/linear1568x32_fwd", 64, 1568, 32, 0, abt},
		{"ABt/linear784x1280_fwd", 16, 784, 1280, 0, abt},
		{"ABt/conv1_dW", 4, 784, 25, 0.5, abt},
		{"ABt/conv2_dW", 8, 196, 100, 0.5, abt},
		{"AtB/conv2_dcols", 100, 8, 196, 0, atb},
		{"AtB/linear784x1280_dW", 1280, 16, 784, 1.0 / 3, atb},
		{"AtB/linear1568x32_dW", 32, 64, 1568, 0.5, atb},
	} {
		var x, y *Tensor
		switch c.name[:3] {
		case "AB/":
			x, y = randTensor(r, c.m, c.k), randTensor(r, c.k, c.n)
		case "ABt":
			x, y = randTensor(r, c.m, c.k), randTensor(r, c.n, c.k)
		default:
			x, y = randTensor(r, c.k, c.m), randTensor(r, c.k, c.n)
		}
		for i := range x.data {
			if r.Float64() < c.zeroFrac {
				x.data[i] = 0
			}
		}
		dst := New(c.m, c.n)
		for v, prefix := range []string{"", "ref/"} {
			b.Run(fmt.Sprintf("%s%s_[%d,%d,%d]", prefix, c.name, c.m, c.k, c.n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.f[v](dst, x, y)
				}
				reportRate(b, c.m*c.k*c.n, "MMAC/s")
			})
		}
	}
}

// convBenchCases: the historical micro-shape and the benchmark CNN's two
// convolutions at its training batch.
var convBenchCases = []struct {
	name                               string
	n, cin, h, w, cout, k, stride, pad int
}{
	{"8x1x28x28_k5p0_c16", 8, 1, 28, 28, 16, 5, 1, 0},
	{"cnn_conv1_64x1x28x28_k5p2_c4", 64, 1, 28, 28, 4, 5, 1, 2},
	{"cnn_conv2_64x4x14x14_k5p2_c8", 64, 4, 14, 14, 8, 5, 1, 2},
}

func BenchmarkConv2DForward(b *testing.B) {
	for _, c := range convBenchCases {
		r := rng.New(1)
		x := randTensor(r, c.n, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.k, c.k)
		bias := randTensor(r, c.cout)
		oh, ow := ConvOut(c.h, c.k, c.stride, c.pad), ConvOut(c.w, c.k, c.stride, c.pad)
		macs := c.n * c.cout * c.cin * c.k * c.k * oh * ow
		b.Run(c.name, func(b *testing.B) {
			var ws ConvWorkspace
			y := New(c.n, c.cout, oh, ow)
			ws.Forward(y, x, w, bias, c.stride, c.pad) // size the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Forward(y, x, w, bias, c.stride, c.pad)
			}
			reportRate(b, macs, "MMAC/s")
		})
		b.Run("ref/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refConv2DForward(x, w, bias, c.stride, c.pad)
			}
			reportRate(b, macs, "MMAC/s")
		})
	}
}

// BenchmarkConv2DBackward counts both products (dW and dx) as MACs.
func BenchmarkConv2DBackward(b *testing.B) {
	for _, c := range convBenchCases {
		r := rng.New(1)
		x := randTensor(r, c.n, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.k, c.k)
		oh, ow := ConvOut(c.h, c.k, c.stride, c.pad), ConvOut(c.w, c.k, c.stride, c.pad)
		dy := randTensor(r, c.n, c.cout, oh, ow)
		macs := 2 * c.n * c.cout * c.cin * c.k * c.k * oh * ow
		b.Run(c.name, func(b *testing.B) {
			var ws ConvWorkspace
			dx, dw, db := New(x.shape...), New(w.shape...), New(c.cout)
			ws.Backward(dx, dw, db, dy, x, w, c.stride, c.pad) // size the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Backward(dx, dw, db, dy, x, w, c.stride, c.pad)
			}
			reportRate(b, macs, "MMAC/s")
		})
		b.Run("ref/"+c.name, func(b *testing.B) {
			_, cols := refConv2DForward(x, w, nil, c.stride, c.pad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refConv2DBackward(dy, x, w, cols, true, true, c.stride, c.pad)
			}
			reportRate(b, macs, "MMAC/s")
		})
	}
}

func BenchmarkIm2Col(b *testing.B) {
	for _, c := range []struct {
		name          string
		c, h, w, k, p int
	}{
		{"3x32x32_k5p2", 3, 32, 32, 5, 2},
		{"cnn_conv1_1x28x28_k5p2", 1, 28, 28, 5, 2},
		{"cnn_conv2_4x14x14_k5p2", 4, 14, 14, 5, 2},
	} {
		x := randTensor(rng.New(1), c.c, c.h, c.w)
		elems := c.c * c.k * c.k * ConvOut(c.h, c.k, 1, c.p) * ConvOut(c.w, c.k, 1, c.p)
		cols := New(c.c*c.k*c.k, elems/(c.c*c.k*c.k))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im2col(cols.data, x.data, c.c, c.h, c.w, c.k, c.k, 1, c.p)
			}
			reportRate(b, elems, "Melem/s")
		})
		b.Run("ref/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refIm2Col(x, c.k, c.k, 1, c.p)
			}
			reportRate(b, elems, "Melem/s")
		})
		b.Run("col2im/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col2im(x.data, cols.data, c.c, c.h, c.w, c.k, c.k, 1, c.p)
			}
			reportRate(b, elems, "Melem/s")
		})
		b.Run("ref/col2im/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refCol2Im(cols, c.c, c.h, c.w, c.k, c.k, 1, c.p)
			}
			reportRate(b, elems, "Melem/s")
		})
	}
}
