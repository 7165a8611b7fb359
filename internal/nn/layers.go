package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b for x [N, In].
type Linear struct {
	In, Out int
	Weight  *Parameter // [Out, In]
	Bias    *Parameter // [Out]

	lastInput *tensor.Tensor
	y, dx     *tensor.Tensor // workspaces, see Module
}

// NewLinear constructs a Linear layer with Kaiming-uniform initialization.
func NewLinear(in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		Weight: &Parameter{
			Name:  fmt.Sprintf("linear%dx%d.weight", out, in),
			Value: tensor.New(out, in),
			Grad:  tensor.New(out, in),
		},
		Bias: &Parameter{
			Name:  fmt.Sprintf("linear%dx%d.bias", out, in),
			Value: tensor.New(out),
			Grad:  tensor.New(out),
		},
	}
	bound := math.Sqrt(6.0 / float64(in))
	r.FillUniform(l.Weight.Value.Data(), -bound, bound)
	bb := 1.0 / math.Sqrt(float64(in))
	r.FillUniform(l.Bias.Value.Data(), -bb, bb)
	return l
}

// Forward computes x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, x.Shape()))
	}
	l.lastInput = x
	l.y = tensor.Reuse(l.y, x.Dim(0), l.Out)
	tensor.MatMulTransBInto(l.y, x, l.Weight.Value)
	y, b := l.y.Data(), l.Bias.Value.Data()
	for i := 0; i < x.Dim(0); i++ {
		for j := range b {
			y[i*l.Out+j] += b[j]
		}
	}
	return l.y
}

// Backward accumulates dW = dyᵀ·x, db = Σ dy and returns dx = dy·W.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(dy)
	l.dx = tensor.Reuse(l.dx, dy.Dim(0), l.In)
	return tensor.MatMulInto(l.dx, dy, l.Weight.Value)
}

// backwardParams is Backward without the dy·W product.
func (l *Linear) backwardParams(dy *tensor.Tensor) {
	if l.lastInput == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.Weight.Grad.AddMatMulTransA(dy, l.lastInput)
	db, g := l.Bias.Grad.Data(), dy.Data()
	for i := 0; i < dy.Dim(0); i++ {
		for j, v := range g[i*l.Out : (i+1)*l.Out] {
			db[j] += v
		}
	}
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.Weight, l.Bias} }

// Conv2D is a 2-D convolution over [N, Cin, H, W] inputs.
type Conv2D struct {
	InChannels, OutChannels int
	Kernel, Stride, Pad     int
	Weight                  *Parameter // [Cout, Cin, K, K]
	Bias                    *Parameter // [Cout]

	lastInput     *tensor.Tensor
	y, dx, dw, db *tensor.Tensor // workspaces, see Module
	scratch       tensor.ConvWorkspace
}

// NewConv2D constructs a Conv2D layer with Kaiming-uniform initialization.
func NewConv2D(inC, outC, kernel, stride, pad int, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		Weight: &Parameter{
			Name:  fmt.Sprintf("conv%dx%dk%d.weight", outC, inC, kernel),
			Value: tensor.New(outC, inC, kernel, kernel),
			Grad:  tensor.New(outC, inC, kernel, kernel),
		},
		Bias: &Parameter{
			Name:  fmt.Sprintf("conv%dx%dk%d.bias", outC, inC, kernel),
			Value: tensor.New(outC),
			Grad:  tensor.New(outC),
		},
	}
	fanIn := float64(inC * kernel * kernel)
	bound := math.Sqrt(6.0 / fanIn)
	r.FillUniform(c.Weight.Value.Data(), -bound, bound)
	bb := 1.0 / math.Sqrt(fanIn)
	r.FillUniform(c.Bias.Value.Data(), -bb, bb)
	return c
}

// Forward applies the convolution.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D expects [N,%d,H,W], got %v", c.InChannels, x.Shape()))
	}
	c.lastInput = x
	c.y = c.scratch.Forward(c.y, x, c.Weight.Value, c.Bias.Value, c.Stride, c.Pad)
	return c.y
}

// Backward accumulates weight/bias gradients and returns dx.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backwardParams is Backward without the col2im scatter that forms dx.
func (c *Conv2D) backwardParams(dy *tensor.Tensor) { c.backward(dy, false) }

func (c *Conv2D) backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if c.lastInput == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	var dx *tensor.Tensor
	if needDx {
		c.dx = tensor.Reuse(c.dx, c.lastInput.Shape()...)
		dx = c.dx
	}
	c.dw = tensor.Reuse(c.dw, c.Weight.Value.Shape()...)
	c.db = tensor.Reuse(c.db, c.OutChannels)
	c.scratch.Backward(dx, c.dw, c.db, dy, c.lastInput, c.Weight.Value, c.Stride, c.Pad)
	c.Weight.Grad.AddInPlace(c.dw)
	c.Bias.Grad.AddInPlace(c.db)
	return dx
}

// Params returns the layer's weight and bias.
func (c *Conv2D) Params() []*Parameter { return []*Parameter{c.Weight, c.Bias} }

// ReLU is the elementwise rectifier max(0, x).
type ReLU struct {
	out, dx *tensor.Tensor // workspaces, see Module
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// positiveMask returns all ones when the float64 with bit pattern b is
// greater than zero and 0 otherwise (zeros, negatives, NaNs), without a
// branch: on activations of random sign a compare-and-branch mispredicts
// every other element, which made the rectifier cost as much as a
// convolution. b-1 maps +0 to the top of the range; what remains positive
// is b-1 in [0, bits(+Inf)).
func positiveMask(b uint64) uint64 {
	t := int64(b - 1)
	return uint64((t-0x7ff0000000000000)>>63) &^ uint64(t>>63)
}

// Forward applies the rectifier.
func (a *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.out = tensor.Reuse(a.out, x.Shape()...)
	out := a.out.Data()
	for i, v := range x.Data() {
		b := math.Float64bits(v)
		out[i] = math.Float64frombits(b & positiveMask(b))
	}
	return a.out
}

// Backward zeroes the gradient where the input was non-positive — which is
// exactly where the retained output is not positive.
func (a *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if a.out == nil || a.out.Size() != dy.Size() {
		panic("nn: ReLU.Backward size mismatch with last Forward")
	}
	a.dx = tensor.Reuse(a.dx, dy.Shape()...)
	dx, out := a.dx.Data(), a.out.Data()
	for i, g := range dy.Data() {
		dx[i] = math.Float64frombits(math.Float64bits(g) & positiveMask(math.Float64bits(out[i])))
	}
	return a.dx
}

// Params returns nil; ReLU has no parameters.
func (a *ReLU) Params() []*Parameter { return nil }

// MaxPool2D applies max pooling with a square kernel.
type MaxPool2D struct {
	Kernel, Stride int

	argmax  []int
	inShape []int
	y, dx   *tensor.Tensor // workspaces, see Module
}

// NewMaxPool2D constructs a pooling layer.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools the input.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.y, p.argmax = tensor.MaxPool2DForwardInto(p.y, p.argmax, x, p.Kernel, p.Stride)
	p.inShape = append(p.inShape[:0], x.Shape()...)
	return p.y
}

// Backward routes gradients to the max positions.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	p.dx = tensor.Reuse(p.dx, p.inShape...)
	tensor.MaxPool2DBackwardInto(p.dx, dy, p.argmax)
	return p.dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Parameter { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	inShape []int
	out, dx *tensor.Tensor // view headers, re-pointed on every call
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	n := x.Dim(0)
	f.out = tensor.ViewInto(f.out, x, n, x.Size()/max(n, 1))
	return f.out
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f.dx = tensor.ViewInto(f.dx, dy, f.inShape...)
	return f.dx
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Parameter { return nil }

// Sequential chains modules.
type Sequential struct {
	Layers []Module

	// params caches Params() and firstParam the index of the first layer
	// that has any (len(Layers) when none does); both are rebuilt when
	// Layers changes length. A training step asks for the list half a
	// dozen times (ZeroGrad, NumParams, SetParams, FlattenGrads, ...).
	params     []*Parameter
	firstParam int
	cachedLen  int // len(Layers) the cache was built for (the zero values fit an empty model)
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Module) *Sequential { return &Sequential{Layers: layers} }

// Forward applies the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward applies the layers' backward passes in reverse order.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// BackwardParams is m.Backward(dy) for callers that read only the
// parameter gradients (training steps, the gradient-inversion attack):
// every Parameter.Grad ends bit-identical to Backward's, but in a
// Sequential the gradient with respect to the model input — which nobody
// below the first parameterised layer consumes — is never formed. That
// skips the first Linear's dy·W product or the first Conv2D's col2im, and
// the parameter-free layers beneath them.
func BackwardParams(m Module, dy *tensor.Tensor) {
	s, ok := m.(*Sequential)
	if !ok {
		m.Backward(dy)
		return
	}
	s.Params()
	first := s.firstParam
	for i := len(s.Layers) - 1; i > first; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if first == len(s.Layers) {
		return
	}
	if l, ok := s.Layers[first].(interface{ backwardParams(*tensor.Tensor) }); ok {
		l.backwardParams(dy)
	} else {
		s.Layers[first].Backward(dy)
	}
}

// Params concatenates all layer parameters in order. The slice is cached
// and shared between calls: read it, do not append to or reorder it.
// Replacing a layer in place (same len(Layers)) is not noticed.
func (s *Sequential) Params() []*Parameter {
	if s.cachedLen == len(s.Layers) {
		return s.params
	}
	s.params, s.firstParam = nil, len(s.Layers)
	for i, l := range s.Layers {
		ps := l.Params()
		if len(ps) > 0 && s.firstParam == len(s.Layers) {
			s.firstParam = i
		}
		s.params = append(s.params, ps...)
	}
	s.cachedLen = len(s.Layers)
	return s.params
}
