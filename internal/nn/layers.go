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
	return newLinear(in, out, r, newParamStore(linearSize(in, out)))
}

// linearSize is the parameter count of a Linear layer.
func linearSize(in, out int) int { return out*in + out }

func newLinear(in, out int, r *rng.RNG, st *paramStore) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: st.param(fmt.Sprintf("linear%dx%d.weight", out, in), out, in),
		Bias:   st.param(fmt.Sprintf("linear%dx%d.bias", out, in), out),
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

// Backward writes dW = dyᵀ·x, db = Σ dy and returns dx = dy·W.
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
	tensor.MatMulTransAInto(l.Weight.Grad, dy, l.lastInput)
	db, g := l.Bias.Grad.Data(), dy.Data()
	clear(db)
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

	lastInput *tensor.Tensor
	y, dx     *tensor.Tensor // workspaces, see Module
	scratch   tensor.ConvWorkspace
}

// NewConv2D constructs a Conv2D layer with Kaiming-uniform initialization.
func NewConv2D(inC, outC, kernel, stride, pad int, r *rng.RNG) *Conv2D {
	return newConv2D(inC, outC, kernel, stride, pad, r, newParamStore(conv2DSize(inC, outC, kernel)))
}

// conv2DSize is the parameter count of a Conv2D layer.
func conv2DSize(inC, outC, kernel int) int { return outC*inC*kernel*kernel + outC }

func newConv2D(inC, outC, kernel, stride, pad int, r *rng.RNG, st *paramStore) *Conv2D {
	c := &Conv2D{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		Weight:      st.param(fmt.Sprintf("conv%dx%dk%d.weight", outC, inC, kernel), outC, inC, kernel, kernel),
		Bias:        st.param(fmt.Sprintf("conv%dx%dk%d.bias", outC, inC, kernel), outC),
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

// Backward writes the weight and bias gradients and returns dx.
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
	c.scratch.Backward(dx, c.Weight.Grad, c.Bias.Grad, dy, c.lastInput, c.Weight.Value, c.Stride, c.Pad)
	return dx
}

// Params returns the layer's weight and bias.
func (c *Conv2D) Params() []*Parameter { return []*Parameter{c.Weight, c.Bias} }

// ReLU is the elementwise rectifier max(0, x). Inside a Sequential it
// writes into the tensor it is handed wherever that is a workspace no
// layer reads again (see step); elsewhere into workspaces of its own.
type ReLU struct {
	y       *tensor.Tensor // the last Forward's output: Backward's mask
	out, dx *tensor.Tensor // workspaces, see Module; unused in place
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

// into returns t itself when inPlace, else the workspace *ws cut to t.
func into(ws **tensor.Tensor, t *tensor.Tensor, inPlace bool) *tensor.Tensor {
	if !inPlace {
		*ws = tensor.Reuse(*ws, t.Shape()...)
		t = *ws
	}
	return t
}

// Forward applies the rectifier.
func (a *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor { return a.forward(x, false) }

// forward writes into x itself when inPlace. The output is positive
// exactly where x is, so it serves as Backward's mask.
func (a *ReLU) forward(x *tensor.Tensor, inPlace bool) *tensor.Tensor {
	a.y = into(&a.out, x, inPlace)
	rectify(a.y.Data(), x.Data(), x.Data())
	return a.y
}

// Backward zeroes the gradient where the input was non-positive — which is
// exactly where the retained output is not positive.
func (a *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor { return a.backward(dy, false) }

// backward writes into dy itself when inPlace.
func (a *ReLU) backward(dy *tensor.Tensor, inPlace bool) *tensor.Tensor {
	if a.y == nil || a.y.Size() != dy.Size() {
		panic("nn: ReLU.Backward size mismatch with last Forward")
	}
	dx := into(&a.dx, dy, inPlace)
	rectify(dx.Data(), dy.Data(), a.y.Data())
	return dx
}

// rectify writes src into dst where mask is positive and +0 elsewhere;
// dst may be src.
func rectify(dst, src, mask []float64) {
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(math.Float64bits(mask[i])))
	}
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

// Sequential chains modules and owns their parameters' storage: one flat
// vector of values and one of gradients (ParamVector, GradVector), every
// layer's Parameter a view into them at its Params() offset.
type Sequential struct {
	Layers []Module

	// params caches Params() and firstParam the index of the first layer
	// that has any (len(Layers) when none does); cached holds the layers
	// both were built for (the zero values fit an empty model). A change of
	// len(Layers) rebuilds both and re-adopts every parameter into fresh
	// vectors; a layer replaced in place is caught by vectors instead. A
	// training step asks for the list several times (NumParams,
	// ParamVector, GradVector, ...).
	params     []*Parameter
	firstParam int
	cached     []Module
	// offsets[i] is where layer i's parameters start in the vectors,
	// offsets[len(Layers)] their length; setVectors cuts a nested
	// Sequential's vectors by it.
	offsets []int

	vals, grads []float64
}

// NewSequential builds a sequential container over layers built on their
// own: their parameters are copied once into fresh vectors and re-pointed
// at them. A nested Sequential's vectors become its slice of the outer
// ones. (The factories build their layers over the vectors directly.)
func NewSequential(layers ...Module) *Sequential {
	s := &Sequential{Layers: layers}
	s.adopt()
	return s
}

// Forward applies the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	owned := false // x is the caller's
	for _, l := range s.Layers {
		x, owned = step(l, x, owned, true)
	}
	return x
}

// Backward applies the layers' backward passes in reverse order.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor { return s.backward(dy, 0) }

// backward applies the backward passes of Layers[stop:], last first.
func (s *Sequential) backward(dy *tensor.Tensor, stop int) *tensor.Tensor {
	owned := false // dy is the caller's
	for i := len(s.Layers) - 1; i >= stop; i-- {
		dy, owned = step(s.Layers[i], dy, owned, false)
	}
	return dy
}

// step applies l's Forward (fwd) or Backward to t; owned says whether t
// is a workspace no layer reads again, which a ReLU then writes in place.
// It reports the same of the result: true for a workspace of a layer that
// never reads it back, owned for a view of t, false for a layer that reads
// its output back (Tanh, Sigmoid, ReLU) or one this list does not know.
func step(l Module, t *tensor.Tensor, owned, fwd bool) (*tensor.Tensor, bool) {
	switch r := l.(type) {
	case *ReLU:
		if fwd {
			return r.forward(t, owned), false
		}
		return r.backward(t, owned), false
	case *Linear, *Conv2D, *MaxPool2D, *AvgPool2D:
		owned = true
	case *Flatten:
	default:
		owned = false
	}
	if fwd {
		return l.Forward(t), owned
	}
	return l.Backward(t), owned
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
	if first == len(s.Layers) {
		return
	}
	dy = s.backward(dy, first+1)
	if l, ok := s.Layers[first].(interface{ backwardParams(*tensor.Tensor) }); ok {
		l.backwardParams(dy)
	} else {
		s.Layers[first].Backward(dy)
	}
}

// Params concatenates all layer parameters in order. The slice is cached
// and shared between calls: read it, do not append to or reorder it. When
// len(Layers) has changed since the last call, every parameter is first
// re-adopted into fresh vectors, so an appended layer trains with the rest.
func (s *Sequential) Params() []*Parameter {
	if len(s.cached) != len(s.Layers) {
		s.adopt()
	}
	return s.params
}

// collect rebuilds the Params() cache.
func (s *Sequential) collect() {
	s.params, s.firstParam = nil, len(s.Layers)
	s.offsets = append(s.offsets[:0], 0)
	for i, l := range s.Layers {
		ps := l.Params()
		if len(ps) > 0 && s.firstParam == len(s.Layers) {
			s.firstParam = i
		}
		s.params = append(s.params, ps...)
		n := s.offsets[i]
		for _, p := range ps {
			n += p.Value.Size()
		}
		s.offsets = append(s.offsets, n)
	}
	s.cached = append(s.cached[:0], s.Layers...)
}

// adopt rebuilds the cache and moves every parameter into fresh vectors:
// values and gradients are copied once and each Parameter re-pointed
// through new headers of its own.
func (s *Sequential) adopt() {
	s.collect()
	n := s.offsets[len(s.Layers)]
	vals, grads := make([]float64, n), make([]float64, n)
	off := 0
	for _, p := range s.params {
		end := off + p.Value.Size()
		copy(vals[off:end], p.Value.Data())
		copy(grads[off:end], p.Grad.Data())
		p.Value = tensor.FromSlice(vals[off:end:end], p.Value.Shape()...)
		p.Grad = tensor.FromSlice(grads[off:end:end], p.Grad.Shape()...)
		off = end
	}
	s.setVectors(vals, grads)
	// A module whose Params() hands out fresh Parameter structs goes on
	// reading its own storage; asking again exposes it here, not as a model
	// that silently never trains.
	s.collect()
	s.vectors()
}

// Bind points the model at another pair of vectors, laid out like
// ParamVector: every Parameter's Value and Grad become views of vals and
// grads at its Params() offset, and ParamVector and GradVector return
// them. The layers and their workspaces stay, so one replica trains for
// several owners of vectors in turn, each bound for as long as it trains
// (a training slot in core). Bind re-points the parameters' existing
// tensor headers and allocates nothing. It panics when a vector's length
// is not NumParams(s), and, like ParamVector, when a layer was replaced in
// place.
func (s *Sequential) Bind(vals, grads []float64) {
	s.vectors()
	if len(vals) != len(s.vals) || len(grads) != len(s.grads) {
		panic(fmt.Sprintf("nn: Bind to vectors of %d and %d values; the model has %d", len(vals), len(grads), len(s.vals)))
	}
	off := 0
	for _, p := range s.params {
		end := off + p.Value.Size()
		tensor.FromSliceInto(p.Value, vals[off:end:end], p.Value.Shape()...)
		tensor.FromSliceInto(p.Grad, grads[off:end:end], p.Grad.Shape()...)
		off = end
	}
	s.setVectors(vals, grads)
}

// setVectors records vals and grads as the vectors of s and hands each
// nested Sequential its slice of them.
func (s *Sequential) setVectors(vals, grads []float64) {
	s.vals, s.grads = vals, grads
	for i, l := range s.Layers {
		if inner, ok := l.(*Sequential); ok {
			lo, hi := s.offsets[i], s.offsets[i+1]
			inner.setVectors(vals[lo:hi:hi], grads[lo:hi:hi])
		}
	}
}

// vectors returns the value and gradient vectors after checking that
// every parameter still lives in them at its Params() offset. A layer
// replaced in place (same len(Layers), here or in a nested Sequential)
// brings storage of its own, which training in the vectors would silently
// skip: that panics instead.
func (s *Sequential) vectors() (vals, grads []float64) {
	s.Params()
	if !s.unchanged() {
		panic("nn: a layer was replaced in place after construction; its parameters are not stored in the model's vectors")
	}
	off := 0
	for _, p := range s.params {
		v, g := p.Value.Data(), p.Grad.Data()
		n := len(v)
		if len(g) != n || off+n > len(s.vals) || n > 0 && (&v[0] != &s.vals[off] || &g[0] != &s.grads[off]) {
			panic(fmt.Sprintf("nn: parameter %q is not stored in the model's vectors", p.Name))
		}
		off += n
	}
	if off != len(s.vals) {
		panic(fmt.Sprintf("nn: the parameters cover %d of the model's %d-element vectors", off, len(s.vals)))
	}
	return s.vals, s.grads
}

// unchanged reports whether s and every Sequential nested in it still hold
// exactly the layers their caches were built for.
func (s *Sequential) unchanged() bool {
	if len(s.cached) != len(s.Layers) {
		return false
	}
	for i, l := range s.Layers {
		if l != s.cached[i] {
			return false
		}
		if inner, ok := l.(*Sequential); ok && !inner.unchanged() {
			return false
		}
	}
	return true
}
