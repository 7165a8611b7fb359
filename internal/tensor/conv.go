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

// Im2Col unrolls one [C, H, W] image into a fresh [C*KH*KW, OH*OW] matrix
// where each column holds the receptive field of one output position, with
// zeros where the field hangs over the padding.
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
	im2col(out.data, x.data, c, h, w, kh, kw, stride, pad)
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a
// [C*KH*KW, OH*OW] matrix back into a fresh [C, H, W] image. Overlapping
// receptive fields sum, which is exactly the gradient of Im2Col.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with C=%d H=%d W=%d K=%dx%d", cols.shape, c, h, w, kh, kw))
	}
	out := New(c, h, w)
	col2im(out.data, cols.data, c, h, w, kh, kw, stride, pad)
	return out
}

// spanOf returns the output positions [lo,hi) out of [0,ow) whose source
// coordinate o*stride + kj - pad lies inside [0,w), along either axis; the
// rest read padding.
func spanOf(kj, w, ow, stride, pad int) (lo, hi int) {
	if pad > kj {
		lo = min((pad-kj+stride-1)/stride, ow)
	}
	if last := w - kj + pad; last > 0 {
		hi = min((last+stride-1)/stride, ow)
	}
	return lo, max(lo, hi)
}

// im2col fills dst [C*KH*KW, OH*OW] from one image src [C,H,W]. Every
// element of dst is written — in-bounds runs as whole spans, padding as
// explicit zeros — so dst may hold anything on entry.
//
// A "same" convolution (stride 1, OW == W — both of the paper's CNN's) gets
// one copy per matrix row instead of one per output line: there the row is
// the channel image shifted by a constant (ki-pad)*W + (kj-pad), so all its
// in-bounds lines move at once, and only the few pixels that wrapped round
// a line end into the padding columns are zeroed afterwards.
func im2col(dst, src []float64, c, h, w, kh, kw, stride, pad int) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	same := stride == 1 && ow == w
	for ci := 0; ci < c; ci++ {
		img := src[ci*h*w : (ci+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			oy0, oy1 := spanOf(ki, h, oh, stride, pad) // output lines inside the image
			for kj := 0; kj < kw; kj++ {
				lo, hi := spanOf(kj, w, ow, stride, pad)
				row := dst[((ci*kh+ki)*kw+kj)*oh*ow:][:oh*ow]
				clear(row[:oy0*ow])
				clear(row[oy1*ow:])
				if same && oy0 < oy1 && lo < hi {
					shift := (ki-pad)*w + kj - pad
					copy(row[oy0*ow+lo:(oy1-1)*ow+hi], img[oy0*ow+lo+shift:])
					for oy := oy0; oy < oy1; oy++ {
						d := row[oy*ow : (oy+1)*ow]
						for t := 0; t < lo; t++ {
							d[t] = 0
						}
						for t := hi; t < ow; t++ {
							d[t] = 0
						}
					}
					continue
				}
				for oy := oy0; oy < oy1; oy++ {
					d := row[oy*ow : (oy+1)*ow]
					clear(d[:lo])
					clear(d[hi:])
					s := img[(oy*stride+ki-pad)*w:][:w]
					if stride == 1 {
						copy(d[lo:hi], s[lo+kj-pad:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						d[ox] = s[ox*stride+kj-pad]
					}
				}
			}
		}
	}
}

// col2im overwrites the image dst [C,H,W] with the scatter-sum of cols
// [C*KH*KW, OH*OW]. A pixel's contributions arrive in (ki, kj) order, as
// they did one element at a time.
func col2im(dst, cols []float64, c, h, w, kh, kw, stride, pad int) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	clear(dst[:c*h*w])
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				lo, hi := spanOf(kj, w, ow, stride, pad)
				row := cols[((ci*kh+ki)*kw+kj)*oh*ow:][:oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ki - pad
					if iy < 0 || iy >= h {
						continue
					}
					s := row[oy*ow+lo : oy*ow+hi]
					d := dst[(ci*h+iy)*w : (ci*h+iy+1)*w]
					if stride == 1 {
						d = d[lo+kj-pad:][:len(s)]
						for t, v := range s {
							d[t] += v
						}
						continue
					}
					for t, v := range s {
						d[(lo+t)*stride+kj-pad] += v
					}
				}
			}
		}
	}
}

// ConvWorkspace is the scratch one convolution layer keeps between calls:
// per worker, one sample's im2col matrix and the weight/bias gradient
// partials. It belongs to one layer of one model replica and is not safe
// for concurrent use; the zero value is ready.
//
// The im2col matrices of a batch are NOT retained from Forward for
// Backward (at batch 64 the benchmark's CNN would hold 20 MB of them per
// replica): span-copy im2col is cheap next to the products it feeds, so
// Backward unrolls each sample again into the same per-worker tile. That
// also makes a forward-only pass (evaluation) cost no memory at all.
type ConvWorkspace struct {
	tiles [][]float64 // per worker: [Cin*KH*KW, OH*OW], reused for wᵀ·dy
	partW [][]float64 // per worker: Σ dy·colsᵀ over the worker's samples
	partB [][]float64 // per worker: Σ row sums of dy
}

// size readies per-worker scratch for `workers` workers.
func (s *ConvWorkspace) size(workers, tile, wlen, blen int) {
	for len(s.tiles) < workers {
		s.tiles = append(s.tiles, nil)
		s.partW = append(s.partW, nil)
		s.partB = append(s.partB, nil)
	}
	for w := 0; w < workers; w++ {
		s.tiles[w] = growF64(s.tiles[w], tile)
		s.partW[w] = growF64(s.partW[w], wlen)
		s.partB[w] = growF64(s.partB[w], blen)
	}
}

// growF64 returns s resized to n, reallocating only when it must. Contents
// are undefined.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// convDims validates a convolution's operands and returns its geometry.
func convDims(x, weight *Tensor, stride, pad int) (n, cin, h, w, cout, kh, kw, oh, ow int) {
	if x.Rank() != 4 || weight.Rank() != 4 {
		panic("tensor: convolution requires x [N,C,H,W] and weight [Cout,Cin,KH,KW]")
	}
	n, cin, h, w = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, kh, kw = weight.shape[0], weight.shape[2], weight.shape[3]
	if cin != weight.shape[1] {
		panic(fmt.Sprintf("tensor: convolution channel mismatch input %d weight %d", cin, weight.shape[1]))
	}
	oh, ow = ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution of %v by %v stride %d pad %d has empty output", x.shape, weight.shape, stride, pad))
	}
	return
}

// Forward computes the batched 2-D convolution
//
//	x: [N, Cin, H, W], weight: [Cout, Cin, KH, KW], bias: [Cout] (may be nil)
//
// into y re-cut to [N, Cout, OH, OW] (Reuse: y may be nil or any tensor
// the caller is done with) and returns it. Samples are split across
// workers; each is one im2col and one serial product (no goroutines inside
// the already-parallel sample loop).
func (s *ConvWorkspace) Forward(y, x, weight, bias *Tensor, stride, pad int) *Tensor {
	n, cin, h, w, cout, kh, kw, oh, ow := convDims(x, weight, stride, pad)
	plane, k := oh*ow, cin*kh*kw
	y = Reuse(y, n, cout, oh, ow)
	s.size(chunkWorkers(n), k*plane, 0, 0)
	parallelChunks(n, func(wk, lo, hi int) {
		tile := s.tiles[wk]
		for i := lo; i < hi; i++ {
			im2col(tile, x.data[i*cin*h*w:], cin, h, w, kh, kw, stride, pad)
			yi := y.data[i*cout*plane : (i+1)*cout*plane]
			matMulRows(yi, weight.data, tile, 0, cout, k, plane)
			if bias == nil {
				continue
			}
			for co, b := range bias.data {
				row := yi[co*plane : (co+1)*plane]
				for j := range row {
					row[j] += b
				}
			}
		}
	})
	return y
}

// Backward computes the gradients of the batched convolution given the
// upstream gradient dy [N, Cout, OH, OW] and the input x of the forward
// pass. It overwrites dWeight (weight's shape), dBias ([Cout]; nil when the
// convolution has no bias) and dx (x's shape; nil to skip its wᵀ·dy product
// and col2im scatter).
//
// The weight gradient is reduced over chunkWorkers(N) contiguous sample
// chunks and the chunk partials are summed in chunk order. That partition
// is the floating-point summation order: it depends on GOMAXPROCS and N
// and on nothing else, however the chunks happen to be scheduled.
func (s *ConvWorkspace) Backward(dx, dWeight, dBias, dy, x, weight *Tensor, stride, pad int) {
	n, cin, h, w, cout, kh, kw, oh, ow := convDims(x, weight, stride, pad)
	plane, k := oh*ow, cin*kh*kw
	if dy.Size() != n*cout*plane || dWeight.Size() != cout*k || (dBias != nil && dBias.Size() != cout) || (dx != nil && dx.Size() != x.Size()) {
		panic(fmt.Sprintf("tensor: convolution backward shapes dy %v dWeight %v for x %v weight %v", dy.shape, dWeight.shape, x.shape, weight.shape))
	}
	workers := max(chunkWorkers(n), 1)
	blen := 0
	if dBias != nil {
		blen = cout
	}
	s.size(workers, k*plane, cout*k, blen)
	for wk := 0; wk < workers; wk++ {
		clear(s.partW[wk])
		clear(s.partB[wk])
	}
	parallelChunks(n, func(wk, lo, hi int) {
		tile, pw, pb := s.tiles[wk], s.partW[wk], s.partB[wk]
		for i := lo; i < hi; i++ {
			dyi := dy.data[i*cout*plane : (i+1)*cout*plane]
			// dW += dy · colsᵀ
			im2col(tile, x.data[i*cin*h*w:], cin, h, w, kh, kw, stride, pad)
			matMulTransBInto(pw, dyi, tile, cout, plane, k, true)
			for co := range pb {
				sum := 0.0
				for _, v := range dyi[co*plane : (co+1)*plane] {
					sum += v
				}
				pb[co] += sum
			}
			if dx == nil {
				continue
			}
			// dcols = wᵀ · dy, then scatter back to image space.
			matMulTransAInto(tile, weight.data, dyi, cout, k, plane)
			col2im(dx.data[i*cin*h*w:], tile, cin, h, w, kh, kw, stride, pad)
		}
	})
	clear(dWeight.data)
	if dBias != nil {
		clear(dBias.data)
	}
	for wk := 0; wk < workers; wk++ {
		for i, v := range s.partW[wk] {
			dWeight.data[i] += v
		}
		for i, v := range s.partB[wk] {
			dBias.data[i] += v
		}
	}
}

// Conv2DForward is ConvWorkspace.Forward into a fresh y with throwaway
// scratch, for one-off use.
func Conv2DForward(x, weight, bias *Tensor, stride, pad int) *Tensor {
	return new(ConvWorkspace).Forward(nil, x, weight, bias, stride, pad)
}

// Conv2DBackward is ConvWorkspace.Backward into fresh tensors with
// throwaway scratch: dBias is nil when hasBias is false, dx when needDx is.
func Conv2DBackward(dy, x, weight *Tensor, hasBias, needDx bool, stride, pad int) (dx, dWeight, dBias *Tensor) {
	if needDx {
		dx = New(x.shape...)
	}
	dWeight = New(weight.shape...)
	if hasBias {
		dBias = New(weight.shape[0])
	}
	new(ConvWorkspace).Backward(dx, dWeight, dBias, dy, x, weight, stride, pad)
	return dx, dWeight, dBias
}

// chunkWorkers is how many contiguous chunks parallelChunks splits n items
// into: min(GOMAXPROCS, n).
func chunkWorkers(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// parallelChunks splits [0,n) into chunkWorkers(n) contiguous chunks of
// ⌈n/workers⌉ items and runs f(worker, lo, hi) on each, concurrently when
// there is more than one (the first on the calling goroutine). The chunk
// boundaries are a function of n and GOMAXPROCS alone — callers that
// reduce per chunk rely on that.
func parallelChunks(n int, f func(worker, lo, hi int)) {
	workers := chunkWorkers(n)
	if workers <= 1 {
		if n > 0 {
			f(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 1; wk*chunk < n; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			f(wk, wk*chunk, min((wk+1)*chunk, n))
		}(wk)
	}
	f(0, 0, chunk)
	wg.Wait()
}
