package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// The tests here hold the register-tiled kernels to the scalar loops in
// ref_test.go element by element with math.Float64bits. Two NaNs compare
// equal whatever their payloads: which operand's payload an x86 add or
// multiply of two NaNs keeps depends on the operand order the register
// allocator picked, which is not part of the operation sequence.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d is %v (%#x), the scalar loop gives %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// fillMode says what a test operand is seeded with besides normal draws.
type fillMode int

const (
	fillNormal   fillMode = iota // N(0,1) only
	fillZeros                    // ~half exact zeros (a post-ReLU gradient), some -0
	fillSpecials                 // zeros, -0, subnormals, ±Inf, NaN and huge values
)

var fillModes = []fillMode{fillNormal, fillZeros, fillSpecials}

func (m fillMode) String() string { return [...]string{"normal", "zeros", "specials"}[m] }

func filled(r *rng.RNG, mode fillMode, shape ...int) *Tensor {
	t := New(shape...)
	r.FillNormal(t.data, 0, 1)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-308, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}
	for i := range t.data {
		switch mode {
		case fillZeros:
			if r.Intn(2) == 0 {
				t.data[i] = specials[r.Intn(2)]
			}
		case fillSpecials:
			if r.Intn(4) == 0 {
				t.data[i] = specials[r.Intn(len(specials))]
			}
		}
	}
	return t
}

// kernelShapes generates (m, k, n) triples: the full cube over the small
// sizes (every remainder path of the 2×2 tile and the 4-wide gather, and
// empty dimensions), random draws over the sizes the models use, and the
// benchmark's real products.
func kernelShapes(r *rng.RNG) [][3]int {
	small := []int{0, 1, 2, 3, 4, 5, 7, 8}
	var out [][3]int
	for _, m := range small {
		for _, k := range small {
			for _, n := range small {
				out = append(out, [3]int{m, k, n})
			}
		}
	}
	all := []int{1, 2, 3, 4, 5, 7, 8, 16, 25, 100, 196, 784}
	for len(out) < len(small)*len(small)*len(small)+120 {
		s := [3]int{all[r.Intn(len(all))], all[r.Intn(len(all))], all[r.Intn(len(all))]}
		if s[0]*s[1]*s[2] <= 1<<21 {
			out = append(out, s)
		}
	}
	return append(out,
		[3]int{4, 25, 784}, [3]int{8, 100, 196}, // conv forward
		[3]int{4, 784, 25}, [3]int{8, 196, 100}, // conv weight gradient
		[3]int{100, 8, 196},   // conv column gradient
		[3]int{16, 784, 1280}, // Linear(784,1280) forward at batch 16
		[3]int{1280, 16, 784}, // its weight gradient (wider than one column block)
		[3]int{64, 32, 1568},  // Linear(1568,32) input gradient at batch 64
	)
}

func TestMatMulKernelsBitIdentical(t *testing.T) {
	r := rng.New(15)
	for _, s := range kernelShapes(r) {
		m, k, n := s[0], s[1], s[2]
		for _, mode := range fillModes {
			name := fmt.Sprintf("[%d,%d,%d]/%v", m, k, n, mode)

			// A·B, fresh and into a dirty destination.
			a, b := filled(r, mode, m, k), filled(r, mode, k, n)
			want := refMatMul(a, b).data
			sameBits(t, "MatMul "+name, MatMul(a, b).data, want)
			sameBits(t, "MatMulInto "+name, MatMulInto(filled(r, fillSpecials, m, n), a, b).data, want)

			// Aᵀ·B, fresh and into a dirty destination.
			at := filled(r, mode, k, m)
			want = refMatMulTransA(at, b).data
			sameBits(t, "MatMulTransA "+name, MatMulTransA(at, b).data, want)
			sameBits(t, "MatMulTransAInto "+name, MatMulTransAInto(filled(r, fillSpecials, m, n), at, b).data, want)

			// A·Bᵀ: fresh, into a dirty destination, and added.
			bt := filled(r, mode, n, k)
			want = refMatMulTransB(a, bt).data
			sameBits(t, "MatMulTransB "+name, MatMulTransB(a, bt).data, want)
			sameBits(t, "MatMulTransBInto "+name, MatMulTransBInto(filled(r, fillSpecials, m, n), a, bt).data, want)
			acc := filled(r, fillNormal, m, n)
			wantAcc := acc.Clone().AddInPlace(refMatMulTransB(a, bt))
			matMulTransBInto(acc.data, a.data, bt.data, m, k, n, true)
			sameBits(t, "matMulTransBInto(add) "+name, acc.data, wantAcc.data)
		}
	}
}

// TestZeroSkipKeepsInfOut: the one place the skip is visible. 0·Inf is NaN;
// the scalar loops never formed it because they skip a zero multiplier in
// A, and neither may the gather. A zero in B is NOT skipped, by either.
func TestZeroSkipKeepsInfOut(t *testing.T) {
	a := FromSlice([]float64{0, 1, 0, 2, 3, 0, 4, 5, 6}, 1, 9)
	b := New(9, 3)
	for i := range b.data {
		b.data[i] = float64(i%5) - 2
	}
	b.data[0*3+1], b.data[2*3+0], b.data[5*3+2] = math.Inf(1), math.Inf(-1), math.NaN() // rows A skips
	got := MatMul(a, b)
	for _, v := range got.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("a skipped 0·Inf leaked into the product: %v", got.data)
		}
	}
	sameBits(t, "MatMul", got.data, refMatMul(a, b).data)
	at := FromSlice(a.data, 9, 1)
	sameBits(t, "MatMulTransA", MatMulTransA(at, b).data, got.data)

	b.data[1*3+1] = 0 // B's zero meets A's 1: formed, harmless
	a.data[1] = math.Inf(1)
	if got := MatMul(a, b); !math.IsNaN(got.data[1]) {
		t.Fatalf("Inf·0 with the zero in B must still be formed, got %v", got.data)
	}
}

func TestIm2ColCol2ImBitIdentical(t *testing.T) {
	r := rng.New(16)
	checked := 0
	for _, c := range []int{1, 3} {
		for _, hw := range [][2]int{{5, 5}, {6, 9}, {9, 4}, {14, 14}, {28, 28}} {
			for _, k := range []int{1, 2, 3, 5} {
				for _, stride := range []int{1, 2, 3} {
					for _, pad := range []int{0, 1, 2, 4} {
						h, w := hw[0], hw[1]
						oh, ow := ConvOut(h, k, stride, pad), ConvOut(w, k, stride, pad)
						if oh <= 0 || ow <= 0 {
							continue
						}
						name := fmt.Sprintf("c=%d %dx%d k=%d stride=%d pad=%d", c, h, w, k, stride, pad)
						x := filled(r, fillSpecials, c, h, w)
						want := refIm2Col(x, k, k, stride, pad)
						sameBits(t, "Im2Col "+name, Im2Col(x, k, k, stride, pad).data, want.data)
						// Into storage that holds garbage: padding must be written, not assumed.
						dirty := filled(r, fillSpecials, c*k*k, oh*ow)
						im2col(dirty.data, x.data, c, h, w, k, k, stride, pad)
						sameBits(t, "im2col(dirty) "+name, dirty.data, want.data)

						cols := filled(r, fillZeros, c*k*k, oh*ow)
						wantIm := refCol2Im(cols, c, h, w, k, k, stride, pad)
						sameBits(t, "Col2Im "+name, Col2Im(cols, c, h, w, k, k, stride, pad).data, wantIm.data)
						dirtyIm := filled(r, fillSpecials, c, h, w)
						col2im(dirtyIm.data, cols.data, c, h, w, k, k, stride, pad)
						sameBits(t, "col2im(dirty) "+name, dirtyIm.data, wantIm.data)
						checked++
					}
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d geometries checked", checked)
	}
}

// TestConv2DBitIdentical: the batched convolution against the old one at
// GOMAXPROCS 1, 2 and 3 — the weight gradient's chunked summation makes the
// old result a function of GOMAXPROCS, and the new one must be the same
// function. One workspace serves every geometry in turn, so each call runs
// on scratch the previous, differently-shaped call left dirty.
func TestConv2DBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct{ n, cin, h, w, cout, k, stride, pad int }{
		{1, 1, 6, 6, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{3, 2, 7, 9, 5, 5, 2, 2},
		{5, 2, 9, 6, 3, 3, 1, 2},
		{7, 1, 28, 28, 4, 5, 1, 2},  // the benchmark's first conv
		{8, 4, 14, 14, 8, 5, 1, 2},  // and its second
		{64, 4, 14, 14, 8, 5, 1, 2}, // at the training batch
	}
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		r := rng.New(17)
		var ws ConvWorkspace
		for _, c := range cases {
			for _, mode := range fillModes {
				name := fmt.Sprintf("procs=%d %+v %v", procs, c, mode)
				x := filled(r, mode, c.n, c.cin, c.h, c.w)
				w := filled(r, mode, c.cout, c.cin, c.k, c.k)
				bias := filled(r, fillNormal, c.cout)
				wantY, cols := refConv2DForward(x, w, bias, c.stride, c.pad)
				y := filled(r, fillSpecials, wantY.shape...)
				ws.Forward(y, x, w, bias, c.stride, c.pad)
				sameBits(t, "forward "+name, y.data, wantY.data)
				wantNoBias, _ := refConv2DForward(x, w, nil, c.stride, c.pad)
				sameBits(t, "forward(no bias) "+name, Conv2DForward(x, w, nil, c.stride, c.pad).data, wantNoBias.data)

				dy := filled(r, mode, wantY.shape...)
				for _, needDx := range []bool{true, false} {
					wantDx, wantDw, wantDb := refConv2DBackward(dy, x, w, cols, true, needDx, c.stride, c.pad)
					var dx *Tensor
					if needDx {
						dx = filled(r, fillSpecials, x.shape...)
					}
					dw, db := filled(r, fillSpecials, w.shape...), filled(r, fillSpecials, c.cout)
					ws.Backward(dx, dw, db, dy, x, w, c.stride, c.pad)
					sameBits(t, "dW "+name, dw.data, wantDw.data)
					sameBits(t, "dB "+name, db.data, wantDb.data)
					if needDx {
						sameBits(t, "dx "+name, dx.data, wantDx.data)
					}
				}
				_, wantDw, _ := refConv2DBackward(dy, x, w, cols, false, false, c.stride, c.pad)
				_, dw, db := Conv2DBackward(dy, x, w, false, false, c.stride, c.pad)
				if db != nil {
					t.Fatalf("%s: bias gradient for a convolution without one", name)
				}
				sameBits(t, "dW(no bias) "+name, dw.data, wantDw.data)
			}
		}
	}
}

// TestMaxPoolMatchesCompareAndBranch: the conditional-move window scan picks
// the element the branchy one picked — ties to the first, -0 against +0,
// NaN and ±Inf anywhere in the window — into storage that held garbage,
// and the backward pass overwrites (not accumulates into) its destination.
func TestMaxPoolMatchesCompareAndBranch(t *testing.T) {
	r := rng.New(18)
	for _, g := range []struct{ n, c, h, w, kernel, stride int }{{3, 2, 6, 8, 2, 2}, {2, 1, 7, 7, 3, 2}, {1, 3, 5, 9, 2, 1}} {
		for _, mode := range fillModes {
			x := filled(r, mode, g.n, g.c, g.h, g.w)
			if mode == fillZeros { // make ties common
				for i := range x.data {
					x.data[i] = float64(int(x.data[i]))
				}
			}
			oh, ow := ConvOut(g.h, g.kernel, g.stride, 0), ConvOut(g.w, g.kernel, g.stride, 0)
			y, arg := filled(r, fillSpecials, g.n, g.c, oh, ow), make([]int, g.n*g.c*oh*ow)
			for i := range arg {
				arg[i] = -1
			}
			MaxPool2DForwardInto(y, arg, x, g.kernel, g.stride)
			per := g.c * g.h * g.w
			for i := 0; i < g.n; i++ {
				wantY, wantArg := refMaxPoolArgmax(x.data[i*per:(i+1)*per], g.c, g.h, g.w, g.kernel, g.stride)
				sameBits(t, fmt.Sprintf("maxpool %+v %v sample %d", g, mode, i), y.data[i*len(wantY):(i+1)*len(wantY)], wantY)
				for j, a := range wantArg {
					if arg[i*len(wantArg)+j] != a {
						t.Fatalf("maxpool %+v %v sample %d: argmax %d is %d, the branchy scan picks %d", g, mode, i, j, arg[i*len(wantArg)+j], a)
					}
				}
			}
			dy := filled(r, fillNormal, y.shape...)
			dx := filled(r, fillSpecials, x.shape...)
			MaxPool2DBackwardInto(dx, dy, arg)
			sameBits(t, "maxpool dx", dx.data, MaxPool2DBackward(dy, arg, x.shape).data)
		}
	}
}

func TestReuseAndViewInto(t *testing.T) {
	a := Reuse(nil, 4, 6)
	a.Fill(7)
	b := Reuse(a, 3, 2, 2) // smaller: same storage, new shape
	if b != a || b.Rank() != 3 || b.Size() != 12 || &b.data[0] != &a.data[0] {
		t.Fatalf("Reuse did not re-dimension in place: %v", b)
	}
	if c := Reuse(b, 4, 6); c != a || c.Size() != 24 {
		t.Fatalf("Reuse did not grow back inside its capacity: %v", c)
	}
	if d := Reuse(a, 5, 6); d == a || d.Size() != 30 || d.Sum() != 0 {
		t.Fatalf("Reuse past capacity must return a fresh zeroed tensor: %v", d)
	}
	v := ViewInto(nil, a, 6, 4)
	v.Set(9, 0, 1)
	if a.At(0, 1) != 9 || ViewInto(v, b, 2, 12) != v || v.Dim(1) != 12 {
		t.Fatal("ViewInto must share storage and keep its header")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a view that changes the element count")
		}
	}()
	ViewInto(v, a, 5, 5)
}
