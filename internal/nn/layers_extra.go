package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Additional layers beyond the paper's CNN, so user-defined models (the
// framework's fourth plug-and-play component) have a useful vocabulary.

// Tanh is the elementwise hyperbolic tangent activation.
type Tanh struct {
	lastOut, dx *tensor.Tensor // workspaces, see Module
}

// NewTanh constructs a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh.
func (a *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.lastOut = tensor.Reuse(a.lastOut, x.Shape()...)
	out := a.lastOut.Data()
	for i, v := range x.Data() {
		out[i] = math.Tanh(v)
	}
	return a.lastOut
}

// Backward uses d tanh = 1 − tanh².
func (a *Tanh) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if a.lastOut == nil || a.lastOut.Size() != dy.Size() {
		panic("nn: Tanh.Backward without matching Forward")
	}
	a.dx = tensor.Reuse(a.dx, dy.Shape()...)
	dx, g := a.dx.Data(), dy.Data()
	for i, y := range a.lastOut.Data() {
		dx[i] = g[i] * (1 - y*y)
	}
	return a.dx
}

// Params returns nil; Tanh has no parameters.
func (a *Tanh) Params() []*Parameter { return nil }

// Sigmoid is the elementwise logistic activation.
type Sigmoid struct {
	lastOut, dx *tensor.Tensor // workspaces, see Module
}

// NewSigmoid constructs a Sigmoid activation.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies 1/(1+e^{-x}).
func (a *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.lastOut = tensor.Reuse(a.lastOut, x.Shape()...)
	out := a.lastOut.Data()
	for i, v := range x.Data() {
		out[i] = 1 / (1 + math.Exp(-v))
	}
	return a.lastOut
}

// Backward uses dσ = σ(1−σ).
func (a *Sigmoid) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if a.lastOut == nil || a.lastOut.Size() != dy.Size() {
		panic("nn: Sigmoid.Backward without matching Forward")
	}
	a.dx = tensor.Reuse(a.dx, dy.Shape()...)
	dx, g := a.dx.Data(), dy.Data()
	for i, y := range a.lastOut.Data() {
		dx[i] = g[i] * (y * (1 - y))
	}
	return a.dx
}

// Params returns nil; Sigmoid has no parameters.
func (a *Sigmoid) Params() []*Parameter { return nil }

// Dropout zeroes activations with probability P during training and scales
// survivors by 1/(1−P) (inverted dropout); evaluation mode is the identity.
type Dropout struct {
	P     float64
	Train bool
	r     *rng.RNG

	mask    []float64
	out, dx *tensor.Tensor // workspaces, see Module
}

// NewDropout constructs a dropout layer in training mode.
func NewDropout(p float64, r *rng.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v outside [0,1)", p))
	}
	return &Dropout{P: p, Train: true, r: r}
}

// Forward applies the stochastic mask (training) or identity (eval).
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.Train || d.P == 0 {
		d.mask = nil
		return x
	}
	d.out = tensor.Reuse(d.out, x.Shape()...)
	if cap(d.mask) < x.Size() {
		d.mask = make([]float64, x.Size())
	}
	d.mask = d.mask[:x.Size()]
	keep := 1 - d.P
	scale := 1 / keep
	out := d.out.Data()
	for i, v := range x.Data() {
		if d.r.Float64() < keep {
			d.mask[i] = scale
			out[i] = v * scale
		} else {
			d.mask[i] = 0
			out[i] = 0
		}
	}
	return d.out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	if len(d.mask) != dy.Size() {
		panic("nn: Dropout.Backward without matching Forward")
	}
	d.dx = tensor.Reuse(d.dx, dy.Shape()...)
	dx := d.dx.Data()
	for i, g := range dy.Data() {
		dx[i] = g * d.mask[i]
	}
	return d.dx
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Parameter { return nil }

// AvgPool2D applies average pooling with a square kernel over [N,C,H,W].
type AvgPool2D struct {
	Kernel, Stride int

	inShape []int
	out, dx *tensor.Tensor // workspaces, see Module
}

// NewAvgPool2D constructs the pooling layer.
func NewAvgPool2D(kernel, stride int) *AvgPool2D {
	return &AvgPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools the input by window means.
func (p *AvgPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D expects [N,C,H,W], got %v", x.Shape()))
	}
	p.inShape = append(p.inShape[:0], x.Shape()...)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOut(h, p.Kernel, p.Stride, 0)
	ow := tensor.ConvOut(w, p.Kernel, p.Stride, 0)
	p.out = tensor.Reuse(p.out, n, c, oh, ow)
	out := p.out
	inv := 1.0 / float64(p.Kernel*p.Kernel)
	for i := 0; i < n; i++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < p.Kernel; ky++ {
						for kx := 0; kx < p.Kernel; kx++ {
							s += x.At(i, ci, oy*p.Stride+ky, ox*p.Stride+kx)
						}
					}
					out.Set(s*inv, i, ci, oy, ox)
				}
			}
		}
	}
	return out
}

// Backward distributes each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(p.inShape) != 4 {
		panic("nn: AvgPool2D.Backward before Forward")
	}
	p.dx = tensor.Reuse(p.dx, p.inShape...)
	dx := p.dx
	dx.Zero()
	n, c := p.inShape[0], p.inShape[1]
	oh, ow := dy.Dim(2), dy.Dim(3)
	inv := 1.0 / float64(p.Kernel*p.Kernel)
	for i := 0; i < n; i++ {
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At(i, ci, oy, ox) * inv
					for ky := 0; ky < p.Kernel; ky++ {
						for kx := 0; kx < p.Kernel; kx++ {
							iy, ix := oy*p.Stride+ky, ox*p.Stride+kx
							dx.Set(dx.At(i, ci, iy, ix)+g, i, ci, iy, ix)
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *AvgPool2D) Params() []*Parameter { return nil }

// StatefulLayer returns the first layer of m that carries state from one
// training step to the next, or nil when none does. A Dropout in training
// mode with P > 0 is one: it draws its masks from an RNG of its own, so a
// replica that trains for several owners of vectors in turn (see
// Sequential.Bind) would hand each the stream the last one left, and the
// masks a client trains with would depend on the order the clients
// trained in.
func StatefulLayer(m Module) Module {
	switch x := m.(type) {
	case *Dropout:
		if x.Train && x.P > 0 {
			return x
		}
	case *Sequential:
		for _, l := range x.Layers {
			if s := StatefulLayer(l); s != nil {
				return s
			}
		}
	}
	return nil
}

// EvalMode recursively switches every Dropout in m to evaluation mode;
// TrainMode re-enables training behavior. Call EvalMode before validation.
func EvalMode(m Module) { setTrain(m, false) }

// TrainMode switches every Dropout in m to training mode.
func TrainMode(m Module) { setTrain(m, true) }

func setTrain(m Module, train bool) {
	switch x := m.(type) {
	case *Dropout:
		x.Train = train
	case *Sequential:
		for _, l := range x.Layers {
			setTrain(l, train)
		}
	}
}
