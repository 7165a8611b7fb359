package tensor

import (
	"runtime"
	"sync"
)

// Reference kernels: the scalar loops the register-tiled kernels replaced,
// kept verbatim (renamed ref*, allocation and all) so bitident_test.go can
// hold every output element of the new kernels to the old operation
// sequence with math.Float64bits. Do not "tidy" them: their loop order IS
// the specification.

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	work := m * n * k
	if work < parallelThreshold {
		refMatmulRows(a.data, b.data, out.data, 0, m, k, n)
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
			refMatmulRows(a.data, b.data, out.data, lo, hi, k, n)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

func refMatmulRows(a, b, c []float64, lo, hi, k, n int) {
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

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	refMatMulTransAInto(out.data, a.data, b.data, k, m, n)
	return out
}

func refMatMulTransAInto(out, a, b []float64, k, m, n int) {
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

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
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

func refIm2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(c*kh*kw, oh*ow)
	ncols := oh * ow
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ci*kh+ki)*kw + kj) * ncols
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ki - pad
					if iy < 0 || iy >= h {
						continue // zero padding; output already zero
					}
					srcRow := chanBase + iy*w
					dstRow := rowBase + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kj - pad
						if ix < 0 || ix >= w {
							continue
						}
						out.data[dstRow+ox] = x.data[srcRow+ix]
					}
				}
			}
		}
	}
	return out
}

func refCol2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	ncols := oh * ow
	out := New(c, h, w)
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				rowBase := ((ci*kh+ki)*kw + kj) * ncols
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ki - pad
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := chanBase + iy*w
					srcRow := rowBase + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kj - pad
						if ix < 0 || ix >= w {
							continue
						}
						out.data[dstRow+ix] += cols.data[srcRow+ox]
					}
				}
			}
		}
	}
	return out
}

func refConv2DForward(x, weight, bias *Tensor, stride, pad int) (y *Tensor, cols []*Tensor) {
	n, cin, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	y = New(n, cout, oh, ow)
	cols = make([]*Tensor, n)
	wMat := weight.Reshape(cout, cin*kh*kw)
	refParallelFor(n, func(i int) {
		col := refIm2Col(x.Slice(i), kh, kw, stride, pad)
		cols[i] = col
		prod := refMatMul(wMat, col) // [Cout, OH*OW]
		dst := y.Slice(i).data
		copy(dst, prod.data)
		if bias != nil {
			plane := oh * ow
			for co := 0; co < cout; co++ {
				b := bias.data[co]
				row := dst[co*plane : (co+1)*plane]
				for j := range row {
					row[j] += b
				}
			}
		}
	})
	return y, cols
}

func refConv2DBackward(dy, x, weight *Tensor, cols []*Tensor, hasBias, needDx bool, stride, pad int) (dx, dWeight, dBias *Tensor) {
	n, cin, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, kh, kw := weight.shape[0], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	plane := oh * ow

	if needDx {
		dx = New(n, cin, h, w)
	}
	dWeight = New(weight.shape...)
	if hasBias {
		dBias = New(cout)
	}
	wMat := weight.Reshape(cout, cin*kh*kw)

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	partialW := make([]*Tensor, workers)
	partialB := make([]*Tensor, workers)
	for i := range partialW {
		partialW[i] = New(weight.shape...)
		if hasBias {
			partialB[i] = New(cout)
		}
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wk := 0; wk < workers; wk++ {
		lo, hi := wk*chunk, (wk+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			pw := partialW[wk].Reshape(cout, cin*kh*kw)
			for i := lo; i < hi; i++ {
				dyMat := dy.Slice(i).Reshape(cout, plane)
				// dW += dy · colsᵀ
				pw.AddInPlace(refMatMulTransB(dyMat, cols[i]))
				if hasBias {
					for co := 0; co < cout; co++ {
						s := 0.0
						row := dyMat.data[co*plane : (co+1)*plane]
						for _, v := range row {
							s += v
						}
						partialB[wk].data[co] += s
					}
				}
				if !needDx {
					continue
				}
				// dcols = wᵀ · dy, then scatter back to image space.
				dcols := refMatMulTransA(wMat, dyMat)
				dxi := refCol2Im(dcols, cin, h, w, kh, kw, stride, pad)
				copy(dx.Slice(i).data, dxi.data)
			}
		}(wk, lo, hi)
	}
	wg.Wait()
	for i := range partialW {
		dWeight.AddInPlace(partialW[i])
		if hasBias {
			dBias.AddInPlace(partialB[i])
		}
	}
	return dx, dWeight, dBias
}

func refParallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// refMaxPoolArgmax is the old compare-and-branch window scan of
// MaxPool2DForward for one sample: first maximum wins, a NaN never does
// unless it leads the window.
func refMaxPoolArgmax(src []float64, c, h, w, kernel, stride int) (y []float64, argmax []int) {
	oh := ConvOut(h, kernel, stride, 0)
	ow := ConvOut(w, kernel, stride, 0)
	for ci := 0; ci < c; ci++ {
		chanBase := ci * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*stride, ox*stride
				bestIdx := chanBase + iy0*w + ix0
				best := src[bestIdx]
				for ky := 0; ky < kernel; ky++ {
					rowBase := chanBase + (iy0+ky)*w
					for kx := 0; kx < kernel; kx++ {
						idx := rowBase + ix0 + kx
						if src[idx] > best {
							best, bestIdx = src[idx], idx
						}
					}
				}
				y = append(y, best)
				argmax = append(argmax, bestIdx)
			}
		}
	}
	return y, argmax
}
