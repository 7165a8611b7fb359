package tensor

import "fmt"

// ---------------------------------------------------------------------------
// Matrix kernels.
//
// Three products carry a training step: A·B (conv forward, Linear's input
// gradient), Aᵀ·B (conv's column gradient, Linear's weight gradient) and
// A·Bᵀ (Linear forward, conv's weight gradient). Each has ONE kernel, which
// writes into storage the caller owns; the allocating MatMul* functions are
// wrappers that supply a fresh destination.
//
// Bit-identity is the same hard invariant the fold kernels in kernel.go
// hold: every output element sees exactly the floating-point operations of
// the scalar loop it replaced, in the same order —
//
//	axpy form (A·B, Aᵀ·B):  c ← c + a_p·b_p for p ascending, a_p == 0 skipped
//	dot form  (A·Bᵀ):       s ← s + a_p·b_p for p ascending from s = 0
//
// — and the kernels go faster only by advancing several independent
// elements per pass. The axpy kernels take four multipliers at a time and
// evaluate c[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] left to right
// (Go never reassociates floats): one load and one store of c per four
// multiply-adds instead of per one. The dot kernel keeps a 2×2 tile of
// sums in registers, so its four loads feed four multiply-adds on four
// separate dependency chains instead of one.
//
// The zero skip is observable, not just fast: it keeps 0·Inf = NaN out of
// a run whose weights diverged, and it must skip exactly the multipliers
// the scalar loop skipped. So the axpy kernels gather the next four
// NON-ZERO multipliers of a row rather than testing a fixed tile: a
// post-ReLU gradient that is half exact zeros still runs four wide.

// parallelThreshold is the number of multiply-adds below which MatMulInto
// runs serially; spawning goroutines for tiny products costs more than it
// saves.
const parallelThreshold = 64 * 1024

// transAColBlock is how many output columns MatMulTransAInto forms at a
// time, so that the [k, block] panel of B it multiplies stays
// cache-resident across every output row.
const transAColBlock = 512

// MatMul returns the matrix product A·B for rank-2 tensors A [m,k] and
// B [k,n].
func MatMul(a, b *Tensor) *Tensor {
	checkMatMul("MatMul", a, b, 1, 0)
	return MatMulInto(New(a.shape[0], b.shape[1]), a, b)
}

// MatMulInto overwrites dst [m,n] with A·B for A [m,k], B [k,n] and returns
// it. Large products are partitioned by output row across GOMAXPROCS
// workers; rows are independent, so the partition never shows in the bits.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	checkMatMul("MatMulInto", a, b, 1, 0)
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	checkDst("MatMulInto", dst, m, n)
	if m*n*k < parallelThreshold {
		matMulRows(dst.data, a.data, b.data, 0, m, k, n)
		return dst
	}
	parallelChunks(m, func(_, lo, hi int) {
		matMulRows(dst.data, a.data, b.data, lo, hi, k, n)
	})
	return dst
}

// matMulRows overwrites rows [lo,hi) of c [m,n] with A·B.
func matMulRows(c, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		clear(ci)
		axpyRow(ci, a, i*k, 1, b, 0, n, k)
	}
}

// MatMulTransA returns Aᵀ·B for A [k,m], B [k,n] without materializing the
// transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkMatMul("MatMulTransA", a, b, 0, 0)
	return MatMulTransAInto(New(a.shape[1], b.shape[1]), a, b)
}

// MatMulTransAInto overwrites dst [m,n] with Aᵀ·B for A [k,m], B [k,n] and
// returns it. A Linear layer's weight gradient is written this way: dst is
// whatever the last step left there, and nothing of it is read.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	checkMatMul("MatMulTransAInto", a, b, 0, 0)
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	checkDst("MatMulTransAInto", dst, m, n)
	matMulTransAInto(dst.data, a.data, b.data, k, m, n)
	return dst
}

// matMulTransAInto overwrites c [m,n] with Aᵀ·B for A [k,m] and B [k,n],
// one transAColBlock-wide column segment of every output row at a time.
func matMulTransAInto(c, a, b []float64, k, m, n int) {
	for j0 := 0; j0 < n; j0 += transAColBlock {
		w := min(transAColBlock, n-j0)
		for i := 0; i < m; i++ {
			ci := c[i*n+j0 : i*n+j0+w]
			clear(ci)
			axpyRow(ci, a, i, m, b, j0, n, k)
		}
	}
}

// axpyRow accumulates c[j] += Σ_p a[a0 + p·astride]·b[p·n + j0 + j] over p
// in [0,k) ascending, skipping zero multipliers: one output row (or a
// column segment [j0, j0+len(c)) of one) of the axpy-form products. A·B
// reads its multipliers along a row of A (astride 1), Aᵀ·B down a column
// (astride m).
func axpyRow(c, a []float64, a0, astride int, b []float64, j0, n, k int) {
	w := len(c)
	if w == 0 {
		return
	}
	var av [4]float64
	var bo [4]int
	cnt := 0
	for p := 0; p < k; p++ {
		v := a[a0+p*astride]
		if v == 0 {
			continue
		}
		av[cnt], bo[cnt] = v, p*n+j0
		cnt++
		if cnt == 4 {
			axpy4(c, av[0], b[bo[0]:bo[0]+w], av[1], b[bo[1]:bo[1]+w], av[2], b[bo[2]:bo[2]+w], av[3], b[bo[3]:bo[3]+w])
			cnt = 0
		}
	}
	for q := 0; q < cnt; q++ {
		bq := b[bo[q] : bo[q]+w]
		aq := av[q]
		for j, bv := range bq {
			c[j] += aq * bv
		}
	}
}

// axpy4 is four consecutive axpys into c fused into one pass. The sum is
// written out in full because its left-to-right evaluation order is the
// point: per element it is exactly c += a0·b0; c += a1·b1; c += a2·b2;
// c += a3·b3.
func axpy4(c []float64, a0 float64, b0 []float64, a1 float64, b1 []float64, a2 float64, b2 []float64, a3 float64, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j := range c {
		c[j] = c[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// MatMulTransB returns A·Bᵀ for A [m,k], B [n,k] without materializing the
// transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkMatMul("MatMulTransB", a, b, 1, 1)
	return MatMulTransBInto(New(a.shape[0], b.shape[0]), a, b)
}

// MatMulTransBInto overwrites dst [m,n] with A·Bᵀ for A [m,k], B [n,k] and
// returns it.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	checkMatMul("MatMulTransBInto", a, b, 1, 1)
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	checkDst("MatMulTransBInto", dst, m, n)
	matMulTransBInto(dst.data, a.data, b.data, m, k, n, false)
	return dst
}

// matMulTransBInto forms A·Bᵀ for A [m,k], B [n,k] two rows of each at a
// time and stores it to c [m,n], or adds it to c when add is set (each
// finished sum is added once, as AddInPlace of the whole product would).
// The outer loop walks the larger operand, so that one crosses the cache
// once and the smaller one is what gets re-read: Linear's forward streams
// its weight matrix once per batch, not once per sample.
func matMulTransBInto(c, a, b []float64, m, k, n int, add bool) {
	if n >= m {
		for j := 0; j < n; j += 2 {
			for i := 0; i < m; i += 2 {
				dotTile(c, a, b, i, j, m, k, n, add)
			}
		}
		return
	}
	for i := 0; i < m; i += 2 {
		for j := 0; j < n; j += 2 {
			dotTile(c, a, b, i, j, m, k, n, add)
		}
	}
}

// dotTile computes the 2×2 tile of A·Bᵀ at (i, j). At an odd edge the
// missing row is the present one again and its sums are dropped.
func dotTile(c, a, b []float64, i, j, m, k, n int, add bool) {
	i1, j1 := min(i+1, m-1), min(j+1, n-1)
	s00, s01, s10, s11 := dot2x2(a[i*k:i*k+k], a[i1*k:i1*k+k], b[j*k:j*k+k], b[j1*k:j1*k+k])
	if !add {
		c[i*n+j], c[i*n+j1], c[i1*n+j], c[i1*n+j1] = s00, s01, s10, s11
		return
	}
	c[i*n+j] += s00
	if j1 != j {
		c[i*n+j1] += s01
	}
	if i1 != i {
		c[i1*n+j] += s10
		if j1 != j {
			c[i1*n+j1] += s11
		}
	}
}

// dot2x2 returns the four inner products of {a0, a1} with {b0, b1}, each
// summed from zero over p ascending.
func dot2x2(a0, a1, b0, b1 []float64) (s00, s01, s10, s11 float64) {
	a1, b0, b1 = a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
	for p, x0 := range a0 {
		x1, y0, y1 := a1[p], b0[p], b1[p]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
	}
	return
}

// checkMatMul panics unless a and b are rank-2 with matching inner
// dimensions; ia and ib name which axis of each is the inner one.
func checkMatMul(op string, a, b *Tensor, ia, ib int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v x %v", op, a.shape, b.shape))
	}
	if a.shape[ia] != b.shape[ib] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.shape, b.shape))
	}
}

// checkDst panics unless dst is [m,n].
func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination is %v, want [%d %d]", op, dst.shape, m, n))
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
