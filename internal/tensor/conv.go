package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// ConvOut returns the output spatial size of a convolution or pooling with
// the given input size, kernel, stride, and symmetric padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col unrolls one [C, H, W] image into a [C*KH*KW, OH*OW] matrix where
// each column holds the receptive field of one output position. Zero padding
// is applied implicitly.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W] input, got %v", x.shape))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for input %v kernel %dx%d stride %d pad %d", x.shape, kh, kw, stride, pad))
	}
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

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a
// [C*KH*KW, OH*OW] matrix back into a [C, H, W] image. Overlapping
// receptive fields sum, which is exactly the gradient of Im2Col.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	ncols := oh * ow
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != ncols {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with C=%d H=%d W=%d K=%dx%d", cols.shape, c, h, w, kh, kw))
	}
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

// Conv2DForward computes a batched 2-D convolution.
//
//	x: [N, Cin, H, W], weight: [Cout, Cin, KH, KW], bias: [Cout] (may be nil)
//
// Returns y [N, Cout, OH, OW] and the per-sample im2col matrices, which the
// backward pass reuses. Samples are processed in parallel.
func Conv2DForward(x, weight, bias *Tensor, stride, pad int) (y *Tensor, cols []*Tensor) {
	if x.Rank() != 4 || weight.Rank() != 4 {
		panic("tensor: Conv2DForward requires x [N,C,H,W] and weight [Cout,Cin,KH,KW]")
	}
	n, cin, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, cinW, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if cin != cinW {
		panic(fmt.Sprintf("tensor: Conv2DForward channel mismatch input %d weight %d", cin, cinW))
	}
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	y = New(n, cout, oh, ow)
	cols = make([]*Tensor, n)
	wMat := weight.Reshape(cout, cin*kh*kw)
	parallelFor(n, func(i int) {
		col := Im2Col(x.Slice(i), kh, kw, stride, pad)
		cols[i] = col
		prod := MatMul(wMat, col) // [Cout, OH*OW]
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

// Conv2DBackward computes gradients for the batched convolution given the
// upstream gradient dy [N, Cout, OH, OW] and the im2col matrices from the
// forward pass. It returns dx [N, Cin, H, W], dWeight, and dBias; dBias is
// nil when bias was nil, and dx is nil (its wᵀ·dy product and col2im
// scatter skipped) when needDx is false.
func Conv2DBackward(dy, x, weight *Tensor, cols []*Tensor, hasBias, needDx bool, stride, pad int) (dx, dWeight, dBias *Tensor) {
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

	// Per-sample weight-gradient partials are accumulated into per-worker
	// buffers and reduced at the end, so samples can run in parallel without
	// contending on dWeight.
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
				pw.AddInPlace(MatMulTransB(dyMat, cols[i]))
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
				dcols := MatMulTransA(wMat, dyMat)
				dxi := Col2Im(dcols, cin, h, w, kh, kw, stride, pad)
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

// parallelFor runs f(i) for i in [0,n) across GOMAXPROCS goroutines.
func parallelFor(n int, f func(i int)) {
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
