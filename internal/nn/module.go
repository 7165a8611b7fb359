// Package nn implements the neural-network layer library used by the APPFL
// reproduction: Conv2D, Linear, ReLU, MaxPool2D, Flatten, and a Sequential
// container, with manually derived backward passes and a softmax
// cross-entropy loss. It stands in for PyTorch's torch.nn.
//
// Layers are stateful twice over. Forward caches whatever Backward needs,
// and every layer owns the tensors it hands out — its output, its input
// gradient, its scratch — sized on first use and reused while the batch
// shape holds, so a warmed training step allocates nothing. The price is
// one rule, stated on Module: a tensor returned by Forward or Backward is
// valid until that module's next Forward or Backward. A module therefore
// must not be shared across concurrent training loops, and a caller that
// wants two results of one model side by side copies the first. Every
// federated client owns its own model replica (see nn.CloneInto), exactly
// as each APPFL client process owns its own torch module; replicas share
// nothing, so they train and evaluate concurrently.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Parameter is one trainable tensor with its gradient accumulator.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Module is the interface every layer and model implements. Backward takes
// the gradient of the loss with respect to the module output and returns the
// gradient with respect to the module input, accumulating parameter
// gradients along the way.
//
// A tensor returned by Forward or Backward belongs to the module and is
// valid until that module's next Forward or Backward: read it, or copy it,
// before calling the module again. The same "valid until the next call" rule governs
// core.ClientAlgorithm.LocalUpdate and comm.ClientTransport.RecvGlobal.
// Forgetting it costs a wrong read, not a crash. Parameter gradients
// (Parameter.Grad) are not workspaces: they persist until ZeroGrad.
type Module interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Parameter
}

// ZeroGrad clears every parameter gradient of m.
func ZeroGrad(m Module) {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of trainable scalars in m. This is the
// dimension of the flat vectors exchanged by the federated algorithms.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Size()
	}
	return n
}

// FlattenParams copies all parameter values of m into dst (allocating only
// when dst's capacity is insufficient) in Params() order and returns it.
func FlattenParams(m Module, dst []float64) []float64 {
	dst = sizeFor(dst, NumParams(m))
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.Value.Data())
	}
	return dst
}

// FlattenGrads copies all parameter gradients of m into dst in Params()
// order and returns it, reusing dst's capacity like FlattenParams.
func FlattenGrads(m Module, dst []float64) []float64 {
	dst = sizeFor(dst, NumParams(m))
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.Grad.Data())
	}
	return dst
}

// sizeFor resizes dst to length n, allocating only when the capacity is
// insufficient. A dst whose length differs but whose capacity suffices is
// reused — the length-equality test this replaces silently reallocated a
// perfectly good buffer on every call whose caller trimmed or grew it.
func sizeFor(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// SetParams loads the flat vector src into the parameters of m. It panics if
// the length does not match NumParams(m).
func SetParams(m Module, src []float64) {
	n := NumParams(m)
	if len(src) != n {
		panic(fmt.Sprintf("nn: SetParams length %d does not match model size %d", len(src), n))
	}
	off := 0
	for _, p := range m.Params() {
		off += copy(p.Value.Data(), src[off:off+p.Value.Size()])
	}
}
