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
	y := tensor.MatMulTransB(x, l.Weight.Value) // [N, Out]
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := y.Row(i)
		row.AddInPlace(l.Bias.Value)
	}
	return y
}

// Backward accumulates dW = dyᵀ·x, db = Σ dy and returns dx = dy·W.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(dy)
	return tensor.MatMul(dy, l.Weight.Value)
}

// backwardParams is Backward without the dy·W product.
func (l *Linear) backwardParams(dy *tensor.Tensor) {
	if l.lastInput == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.Weight.Grad.AddMatMulTransA(dy, l.lastInput)
	n := dy.Dim(0)
	for i := 0; i < n; i++ {
		l.Bias.Grad.AddInPlace(dy.Row(i))
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

	lastInput *tensor.Tensor
	lastCols  []*tensor.Tensor
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
	y, cols := tensor.Conv2DForward(x, c.Weight.Value, c.Bias.Value, c.Stride, c.Pad)
	c.lastCols = cols
	return y
}

// Backward accumulates weight/bias gradients and returns dx.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backwardParams is Backward without the col2im scatter that forms dx.
func (c *Conv2D) backwardParams(dy *tensor.Tensor) { c.backward(dy, false) }

func (c *Conv2D) backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if c.lastInput == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	dx, dw, db := tensor.Conv2DBackward(dy, c.lastInput, c.Weight.Value, c.lastCols, true, needDx, c.Stride, c.Pad)
	c.Weight.Grad.AddInPlace(dw)
	c.Bias.Grad.AddInPlace(db)
	return dx
}

// Params returns the layer's weight and bias.
func (c *Conv2D) Params() []*Parameter { return []*Parameter{c.Weight, c.Bias} }

// ReLU is the elementwise rectifier max(0, x).
type ReLU struct {
	mask []bool
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier.
func (a *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	if cap(a.mask) < x.Size() {
		a.mask = make([]bool, x.Size())
	}
	a.mask = a.mask[:x.Size()]
	for i, v := range out.Data() {
		if v > 0 {
			a.mask[i] = true
		} else {
			a.mask[i] = false
			out.Data()[i] = 0
		}
	}
	return out
}

// Backward zeroes the gradient where the input was non-positive.
func (a *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(a.mask) != dy.Size() {
		panic("nn: ReLU.Backward size mismatch with last Forward")
	}
	dx := dy.Clone()
	for i := range dx.Data() {
		if !a.mask[i] {
			dx.Data()[i] = 0
		}
	}
	return dx
}

// Params returns nil; ReLU has no parameters.
func (a *ReLU) Params() []*Parameter { return nil }

// MaxPool2D applies max pooling with a square kernel.
type MaxPool2D struct {
	Kernel, Stride int

	argmax  []int
	inShape []int
}

// NewMaxPool2D constructs a pooling layer.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools the input.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	y, argmax := tensor.MaxPool2DForward(x, p.Kernel, p.Stride)
	p.argmax = argmax
	p.inShape = append(p.inShape[:0], x.Shape()...)
	return y
}

// Backward routes gradients to the max positions.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	return tensor.MaxPool2DBackward(dy, p.argmax, p.inShape)
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Parameter { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/max(n, 1))
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Parameter { return nil }

// Sequential chains modules.
type Sequential struct {
	Layers []Module
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
	first := 0
	for first < len(s.Layers) && len(s.Layers[first].Params()) == 0 {
		first++
	}
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

// Params concatenates all layer parameters in order.
func (s *Sequential) Params() []*Parameter {
	var out []*Parameter
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
