package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which MatMul runs
// serially; spawning goroutines for tiny products costs more than it saves.
const parallelThreshold = 64 * 1024

// MatMul returns the matrix product A·B for rank-2 tensors A [m,k] and
// B [k,n]. Large products are partitioned by output row across
// runtime.GOMAXPROCS workers.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	work := m * n * k
	if work < parallelThreshold {
		matmulRows(a.data, b.data, out.data, 0, m, k, n)
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matmulRows(a.data, b.data, out.data, lo, hi, k, n)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// matmulRows computes rows [lo,hi) of C = A·B using an ikj loop order that
// streams through B row-wise for cache friendliness.
func matmulRows(a, b, c []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			aip := ai[p]
			if aip == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += aip * bv
			}
		}
	}
}

// MatMulTransA returns Aᵀ·B for A [k,m], B [k,n] without materializing the
// transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA dimension mismatch %v x %v", a.shape, b.shape))
	}
	n := b.shape[1]
	out := New(m, n)
	matMulTransAInto(out.data, a.data, b.data, k, m, n)
	return out
}

// matMulTransAInto accumulates Aᵀ·B into out [m,n], which the caller has
// zeroed, for A [k,m] and B [k,n].
func matMulTransAInto(out, a, b []float64, k, m, n int) {
	for p := 0; p < k; p++ {
		ap := a[p*m : (p+1)*m]
		bp := b[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := out[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// AddMatMulTransA adds Aᵀ·B to t — bit for bit t.AddInPlace(MatMulTransA(a,
// b)), with the product formed in pooled scratch instead of a fresh tensor.
// A Linear layer's weight gradient is as large as the layer, so a training
// step would otherwise allocate (and fault in) a model-sized temporary per
// layer per batch.
func (t *Tensor) AddMatMulTransA(a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: AddMatMulTransA requires rank-2 operands")
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	if b.shape[0] != k || t.Rank() != 2 || t.shape[0] != m || t.shape[1] != n {
		panic(fmt.Sprintf("tensor: AddMatMulTransA dimension mismatch %v += %vᵀ x %v", t.shape, a.shape, b.shape))
	}
	prod := GetF64(m * n)
	clear(prod)
	matMulTransAInto(prod, a.data, b.data, k, m, n)
	for i, v := range prod {
		t.data[i] += v
	}
	PutF64(prod)
}

// MatMulTransB returns A·Bᵀ for A [m,k], B [n,k] without materializing the
// transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransB dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.data[i*k : (i+1)*k]
		ci := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
	return out
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
