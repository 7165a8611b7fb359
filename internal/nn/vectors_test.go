package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// requireLiveInVectors fails unless every parameter's Value and Grad is
// exactly its slice of ParamVector/GradVector, in Params() order, capped at
// its own length so that nothing can grow into a neighbour.
func requireLiveInVectors(t *testing.T, name string, m *Sequential) {
	t.Helper()
	vals, grads := ParamVector(m), GradVector(m)
	if len(vals) != NumParams(m) || len(grads) != len(vals) {
		t.Fatalf("%s: vectors of %d and %d for %d parameters", name, len(vals), len(grads), NumParams(m))
	}
	off := 0
	for _, p := range m.Params() {
		v, g := p.Value.Data(), p.Grad.Data()
		n := len(v)
		if len(g) != n || cap(v) != n || cap(g) != n {
			t.Fatalf("%s: %s has len %d/%d cap %d/%d", name, p.Name, n, len(g), cap(v), cap(g))
		}
		if n > 0 && (&v[0] != &vals[off] || &g[0] != &grads[off]) {
			t.Fatalf("%s: %s is not the model vectors' [%d:%d)", name, p.Name, off, off+n)
		}
		off += n
	}
	if off != len(vals) {
		t.Fatalf("%s: parameters cover %d of %d", name, off, len(vals))
	}
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func mustPanic(t *testing.T, what, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, substr) {
			t.Fatalf("%s panicked with %v, want a message containing %q", what, r, substr)
		}
	}()
	f()
}

// TestParametersLiveInTheModelVectors: every model the package builds —
// the three factories, and a Sequential (with a nested one) over layers
// built on their own — keeps each parameter's value and gradient as views
// of its two vectors; FlattenParams/FlattenGrads are copies of them bit for
// bit; a write through the vector is what Forward reads; and adopting
// layers keeps the values they were built with.
func TestParametersLiveInTheModelVectors(t *testing.T) {
	r := rng.New(3)
	l1, l2, l3 := NewLinear(6, 5, r), NewLinear(5, 4, r), NewLinear(4, 3, r)
	var built []float64
	for _, l := range []*Linear{l1, l2, l3} {
		built = append(built, l.Weight.Value.Data()...)
		built = append(built, l.Bias.Value.Data()...)
	}
	inner := NewSequential(l2, NewReLU())
	adopted := NewSequential(NewFlatten(), l1, NewReLU(), inner, l3)
	requireBits(t, "adopted values", ParamVector(adopted), built)
	requireLiveInVectors(t, "nested", inner)

	for _, c := range []struct {
		name string
		m    *Sequential
		x    *tensor.Tensor
	}{
		{"mlp", NewMLP(6, []int{5, 4}, 3, rng.New(1)), randT(r, 4, 6)},
		{"cnn", NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, rng.New(2)), randT(r, 2, 1, 8, 8)},
		{"linear", NewLinearModel(6, 3, rng.New(3)), randT(r, 4, 6)},
		{"adopted", adopted, randT(r, 4, 6)},
	} {
		m := c.m
		requireLiveInVectors(t, c.name, m)
		vals := ParamVector(m)
		requireBits(t, c.name+" FlattenParams", FlattenParams(m, nil), vals)

		labels := make([]int, c.x.Dim(0))
		y := m.Forward(c.x).Clone()
		_, d := CrossEntropy(m.Forward(c.x), labels)
		BackwardParams(m, d)
		requireBits(t, c.name+" FlattenGrads", FlattenGrads(m, nil), GradVector(m))
		if tensor.FromSlice(GradVector(m), NumParams(m)).Norm2() == 0 {
			t.Fatalf("%s: backward left the gradient vector zero", c.name)
		}

		kept := append([]float64(nil), vals...)
		clear(vals)
		for i, v := range m.Forward(c.x).Data() {
			if v != 0 {
				t.Fatalf("%s: output %d is %v after the parameter vector was zeroed", c.name, i, v)
			}
		}
		SetParams(m, kept)
		SetParams(m, ParamVector(m)) // the vector itself: a no-op
		requireBits(t, c.name+" forward after SetParams", m.Forward(c.x).Data(), y.Data())
		requireLiveInVectors(t, c.name+" after SetParams", m)
	}
}

// TestChangedSequentialNeverLeavesItsVectors: a Sequential whose Layers
// grow after construction re-adopts every parameter, the new layer's
// included, into vectors that keep all values; one whose layer is replaced
// in place (same length, so nothing rebuilds) has a parameter outside its
// vectors, and ParamVector, GradVector and SetParams refuse it instead of
// training without it.
func TestChangedSequentialNeverLeavesItsVectors(t *testing.T) {
	r := rng.New(8)
	m := NewMLP(6, []int{5}, 4, rng.New(1))
	before := FlattenParams(m, nil)
	extra := NewLinear(4, 2, r)
	want := append(append(append([]float64(nil), before...), extra.Weight.Value.Data()...), extra.Bias.Value.Data()...)
	m.Layers = append(m.Layers, NewReLU(), extra)
	requireBits(t, "grown model", ParamVector(m), want)
	requireLiveInVectors(t, "grown model", m)
	x := randT(r, 3, 6)
	if y := m.Forward(x); y.Dim(1) != 2 {
		t.Fatalf("grown model outputs %v", y.Shape())
	}

	w := FlattenParams(m, nil)
	m.Layers[1] = NewLinear(6, 5, r)
	const why = "not stored in the model's vectors"
	mustPanic(t, "ParamVector", why, func() { ParamVector(m) })
	mustPanic(t, "GradVector", why, func() { GradVector(m) })
	mustPanic(t, "SetParams", why, func() { SetParams(m, w) })
	mustPanic(t, "ParamVector of a bare layer", "wrap it with NewSequential", func() { ParamVector(extra) })

	inner := NewSequential(NewLinear(6, 5, r))
	outer := NewSequential(NewFlatten(), inner, NewReLU(), NewLinear(5, 2, r))
	inner.Layers[0] = NewLinear(6, 5, r)
	mustPanic(t, "ParamVector after a nested replacement", why, func() { ParamVector(outer) })

	mustPanic(t, "NewSequential over a module that hands out fresh Parameters", why,
		func() { NewSequential(freshParams{NewLinear(3, 2, r)}) })
}

// freshParams is a Module whose Params() builds new Parameter structs on
// every call: re-pointing them cannot move the storage the module reads.
type freshParams struct{ *Linear }

func (f freshParams) Params() []*Parameter {
	return []*Parameter{{Name: "w", Value: f.Weight.Value, Grad: f.Weight.Grad}, {Name: "b", Value: f.Bias.Value, Grad: f.Bias.Grad}}
}

// TestBindMovesTheModelWithoutAllocating: Bind points a model — a
// factory CNN, and a Sequential with a nested one — at another pair of
// vectors. Every parameter, the nested Sequential's included, is then a
// view of them; Forward reads them, Backward writes them, and the vectors
// bound before are left as they were. Binding allocates nothing, back and
// forth, and refuses vectors of the wrong length.
func TestBindMovesTheModelWithoutAllocating(t *testing.T) {
	r := rng.New(8)
	for _, c := range []struct {
		name string
		m    *Sequential
		x    *tensor.Tensor
	}{
		{"cnn", NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, rng.New(2)), randT(r, 2, 1, 8, 8)},
		{"nested", NewSequential(NewLinear(6, 5, r), NewReLU(), NewSequential(NewLinear(5, 4, r), NewReLU()), NewLinear(4, 3, r)), randT(r, 4, 6)},
	} {
		m := c.m
		n := NumParams(m)
		ownVals, ownGrads := ParamVector(m), GradVector(m)
		keptVals := append([]float64(nil), ownVals...)
		wantOwn := m.Forward(c.x).Clone().Data()
		// The other owner's vectors, and what the model computes with its
		// values loaded the old way.
		vals, grads := make([]float64, n), make([]float64, n)
		r.FillNormal(vals, 0, 0.3)
		SetParams(m, vals)
		wantOther := m.Forward(c.x).Clone().Data()
		SetParams(m, keptVals)

		m.Bind(vals, grads)
		requireLiveInVectors(t, c.name+" bound", m)
		if &ParamVector(m)[0] != &vals[0] || &GradVector(m)[0] != &grads[0] {
			t.Fatalf("%s: ParamVector/GradVector are not the bound vectors", c.name)
		}
		if inner, ok := m.Layers[2].(*Sequential); ok {
			requireLiveInVectors(t, c.name+" nested, bound", inner)
		}
		requireBits(t, c.name+" forward on the bound vectors", m.Forward(c.x).Data(), wantOther)
		_, d := CrossEntropy(m.Forward(c.x), make([]int, c.x.Dim(0)))
		BackwardParams(m, d)
		if tensor.FromSlice(grads, n).Norm2() == 0 {
			t.Fatalf("%s: backward did not write the bound gradient vector", c.name)
		}
		requireBits(t, c.name+" the vectors bound before", ownVals, keptVals)

		if a := testing.AllocsPerRun(10, func() { m.Bind(ownVals, ownGrads); m.Bind(vals, grads) }); a != 0 {
			t.Fatalf("%s: Bind allocates %v times a call pair", c.name, a)
		}
		m.Bind(ownVals, ownGrads)
		requireBits(t, c.name+" forward back on its own vectors", m.Forward(c.x).Data(), wantOwn)
		mustPanic(t, c.name+" Bind to a short vector", "Bind to vectors", func() { m.Bind(vals[:n-1], grads) })
	}
}
