package tensor

import (
	"fmt"
	"math"
	"sync"
)

// ---------------------------------------------------------------------------
// Pooled scratch buffers.
//
// The federated hot path moves O(dim) vectors every round — encode/decode
// scratch, downlink code buffers, densified payloads. These free-list
// pools let steady-state rounds recycle those buffers instead of
// re-allocating them per message. Contents of a Get buffer are undefined;
// callers must fully overwrite the range they use. Putting a buffer while
// any reference to it is still live is a correctness bug on the caller.

var (
	f64Pool  sync.Pool // of *[]float64
	bytePool sync.Pool // of *[]byte
	// byteBoxes holds the emptied holders GetBytes took out of bytePool,
	// for PutBytes to fill again: a recycled byte buffer costs no
	// allocation of its own.
	byteBoxes sync.Pool // of *[]byte, nil
)

// GetF64 returns a scratch []float64 of length n with undefined contents.
func GetF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		if s := *v.(*[]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutF64 recycles a buffer obtained from GetF64 (or anywhere else — the
// pool only cares about capacity). The caller must not use s afterwards.
func PutF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	f64Pool.Put(&s)
}

// GetBytes returns a scratch []byte of length n with undefined contents.
func GetBytes(n int) []byte {
	if v := bytePool.Get(); v != nil {
		box := v.(*[]byte)
		s := *box
		*box = nil
		byteBoxes.Put(box)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]byte, n)
}

// PutBytes recycles a buffer obtained from GetBytes.
func PutBytes(s []byte) {
	if cap(s) == 0 {
		return
	}
	box, _ := byteBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = s
	bytePool.Put(box)
}

// MaxPool2DForward applies max pooling with a square kernel and stride to a
// batch x [N, C, H, W]. It returns a fresh pooled output [N, C, OH, OW] and
// the flat argmax index (into each sample's data) for every output element,
// which the backward pass uses to route gradients.
func MaxPool2DForward(x *Tensor, kernel, stride int) (y *Tensor, argmax []int) {
	return MaxPool2DForwardInto(nil, nil, x, kernel, stride)
}

// MaxPool2DForwardInto is MaxPool2DForward into storage the caller keeps:
// y is re-cut to [N, C, OH, OW] (Reuse) and argmax to one entry per element
// of y, both are overwritten and returned.
func MaxPool2DForwardInto(y *Tensor, argmax []int, x *Tensor, kernel, stride int) (*Tensor, []int) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2DForward requires [N,C,H,W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := ConvOut(h, kernel, stride, 0)
	ow := ConvOut(w, kernel, stride, 0)
	if oh <= 0 || ow <= 0 {
		panic("tensor: MaxPool2DForward output is empty")
	}
	y = Reuse(y, n, c, oh, ow)
	if cap(argmax) < y.Size() {
		argmax = make([]int, y.Size())
	}
	argmax = argmax[:y.Size()]
	sampleLen := c * h * w
	parallelChunks(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := x.data[i*sampleLen : (i+1)*sampleLen]
			outBase := i * c * oh * ow
			for ci := 0; ci < c; ci++ {
				chanBase := ci * h * w
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy0, ix0 := oy*stride, ox*stride
						// The running maximum travels as its bit pattern next
						// to its index, so the update is two integer
						// conditional moves rather than a branch: which window
						// element wins is a coin toss no predictor calls.
						bestIdx := chanBase + iy0*w + ix0
						best := math.Float64bits(src[bestIdx])
						for ky := 0; ky < kernel; ky++ {
							rowBase := chanBase + (iy0+ky)*w
							for kx := 0; kx < kernel; kx++ {
								idx := rowBase + ix0 + kx
								vb := math.Float64bits(src[idx])
								if src[idx] > math.Float64frombits(best) {
									best, bestIdx = vb, idx
								}
							}
						}
						o := outBase + (ci*oh+oy)*ow + ox
						y.data[o] = math.Float64frombits(best)
						argmax[o] = bestIdx
					}
				}
			}
		}
	})
	return y, argmax
}

// MaxPool2DBackward routes the upstream gradient dy [N, C, OH, OW] back to
// the positions recorded in argmax, producing a fresh dx with the input
// shape.
func MaxPool2DBackward(dy *Tensor, argmax []int, inShape []int) *Tensor {
	if len(inShape) != 4 {
		panic("tensor: MaxPool2DBackward requires a rank-4 input shape")
	}
	dx := New(inShape...)
	MaxPool2DBackwardInto(dx, dy, argmax)
	return dx
}

// MaxPool2DBackwardInto is MaxPool2DBackward into a caller-owned dx
// [N, C, H, W], overwritten.
func MaxPool2DBackwardInto(dx, dy *Tensor, argmax []int) {
	if len(argmax) != dy.Size() {
		panic(fmt.Sprintf("tensor: MaxPool2DBackward argmax length %d does not match dy size %d", len(argmax), dy.Size()))
	}
	clear(dx.data)
	n := dx.shape[0]
	if n == 0 {
		return
	}
	sampleLen := dx.Size() / n
	outSample := dy.Size() / n
	for i := 0; i < n; i++ {
		dst := dx.data[i*sampleLen : (i+1)*sampleLen]
		for j := 0; j < outSample; j++ {
			o := i*outSample + j
			dst[argmax[o]] += dy.data[o]
		}
	}
}
