// Package nn implements the neural-network layer library used by the APPFL
// reproduction: Conv2D, Linear, ReLU, MaxPool2D, Flatten, and a Sequential
// container, with manually derived backward passes and a softmax
// cross-entropy loss. It stands in for PyTorch's torch.nn.
//
// Layers are stateful twice over. Forward caches whatever Backward needs,
// and every layer owns the tensors it hands out — its output, its input
// gradient, its scratch — sized on first use and reused while the batch
// shape holds, so a warmed training step allocates nothing (a ReLU inside
// a Sequential writes into its neighbours' tensors instead). The price is
// one rule, stated on Module: a tensor returned by Forward or Backward is
// valid until that module's next Forward or Backward. A module therefore
// must not be shared across concurrent training loops, and a caller that
// wants two results of one model side by side copies the first. Replicas
// share nothing, so they train and evaluate concurrently.
//
// A Sequential holds its parameters' storage as two flat vectors, one of
// values and one of gradients, each Parameter's Value and Grad a view into
// them at its Params() offset. That is the flat weight vector federated
// learning exchanges, so a client trains in ParamVector(m) and reads
// GradVector(m) with no copy in or out of the layers. The vectors are the
// federated client's state; the layers and their workspaces are not, since
// nothing in them outlives a training step (StatefulLayer names the
// exception, a training Dropout's RNG). Sequential.Bind therefore points a
// replica at another pair of vectors without allocating: a process that
// runs many clients keeps one replica per client training at once, each
// bound to a client's vectors for as long as it trains, where each APPFL
// client process owns a torch module of its own.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Parameter is one trainable tensor with its gradient. The layer's
// Backward overwrites Grad with the gradient of its last call, so a
// training step needs no clearing pass first. Inside a Sequential both are
// views into the model's two flat vectors (see ParamVector); a layer reads
// them through its Parameter on every call.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// paramStore hands out parameters as consecutive views of one value vector
// and one gradient vector, so a factory builds its layers directly over
// the vectors its Sequential then owns. A layer built on its own gets a
// store of its own size.
type paramStore struct {
	vals, grads []float64
	off         int
}

func newParamStore(n int) *paramStore {
	return &paramStore{vals: make([]float64, n), grads: make([]float64, n)}
}

// param returns the next parameter of the given shape, zero-valued.
func (st *paramStore) param(name string, shape ...int) *Parameter {
	n := 1
	for _, d := range shape {
		n *= d
	}
	lo, hi := st.off, st.off+n
	st.off = hi
	return &Parameter{
		Name:  name,
		Value: tensor.FromSlice(st.vals[lo:hi:hi], shape...),
		Grad:  tensor.FromSlice(st.grads[lo:hi:hi], shape...),
	}
}

// sequential wraps layers built over the store in the Sequential that owns
// its vectors. Every vector element must have been handed out, in the
// order the layers list their parameters.
func (st *paramStore) sequential(layers ...Module) *Sequential {
	if st.off != len(st.vals) {
		panic(fmt.Sprintf("nn: parameter store of %d holds %d", len(st.vals), st.off))
	}
	s := &Sequential{Layers: layers, vals: st.vals, grads: st.grads}
	s.collect()
	return s
}

// Module is the interface every layer and model implements. Backward takes
// the gradient of the loss with respect to the module output and returns the
// gradient with respect to the module input, writing each parameter
// gradient along the way: what a Parameter.Grad held before is overwritten,
// not added to.
//
// A tensor returned by Forward or Backward belongs to the module and is
// valid until that module's next Forward or Backward: read it, or copy it,
// before calling the module again. The same "valid until the next call" rule governs
// core.ClientAlgorithm.LocalUpdate and comm.ClientTransport.RecvGlobal.
// Forgetting it costs a wrong read, not a crash. Parameter gradients
// (Parameter.Grad) are not workspaces: they persist until the next
// Backward overwrites them.
type Module interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Parameter
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

// ParamVector returns the live flat vector holding every parameter value
// of m, in Params() order: writing it changes the model, and training in
// it needs no SetParams. m must be a *Sequential (every model this package
// builds is one; wrap any other Module with NewSequential). It panics when
// a parameter is not stored in the vector — a layer swapped into
// Sequential.Layers in place after construction.
func ParamVector(m Module) []float64 {
	vals, _ := sequential(m).vectors()
	return vals
}

// GradVector returns the live flat vector holding every parameter gradient
// of m, laid out like ParamVector: what the last Backward wrote, with no
// FlattenGrads copy. The same conditions as ParamVector's apply.
func GradVector(m Module) []float64 {
	_, grads := sequential(m).vectors()
	return grads
}

func sequential(m Module) *Sequential {
	s, ok := m.(*Sequential)
	if !ok {
		panic(fmt.Sprintf("nn: a %T has no parameter vectors; wrap it with NewSequential", m))
	}
	return s
}

// FlattenParams copies all parameter values of m into dst (allocating only
// when dst's capacity is insufficient) in Params() order and returns it.
// For a Sequential that is a copy of ParamVector.
func FlattenParams(m Module, dst []float64) []float64 {
	dst = sizeFor(dst, NumParams(m))
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.Value.Data())
	}
	return dst
}

// FlattenGrads copies all parameter gradients of m into dst in Params()
// order and returns it, reusing dst's capacity like FlattenParams. For a
// Sequential that is a copy of GradVector.
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
// the length does not match NumParams(m). Into a Sequential it is one copy
// into ParamVector(m) — none when src is that vector — and it panics, like
// ParamVector, on a parameter stored outside the vector.
func SetParams(m Module, src []float64) {
	n := NumParams(m)
	if len(src) != n {
		panic(fmt.Sprintf("nn: SetParams length %d does not match model size %d", len(src), n))
	}
	if s, ok := m.(*Sequential); ok {
		vals, _ := s.vectors()
		if n > 0 && &vals[0] != &src[0] {
			copy(vals, src)
		}
		return
	}
	off := 0
	for _, p := range m.Params() {
		off += copy(p.Value.Data(), src[off:off+p.Value.Size()])
	}
}
