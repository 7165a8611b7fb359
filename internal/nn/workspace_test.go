package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestTrainingStepAllocationGate: once the first steps have sized every
// layer's workspace, a training step of the benchmark's CNN as a client
// runs it (Forward → CrossEntropy → BackwardParams, then an SGD update of
// ParamVector from GradVector) allocates only what starting its
// worker goroutines costs — also when the batch alternates between 64 and
// the epoch's trailing 48. Before the layers owned their tensors a step
// made ~4 700 allocations totalling ~47 MB.
func TestTrainingStepAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := rng.New(1)
	m := NewCNN(CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, r)
	type batch struct {
		x      *tensor.Tensor
		labels []int
	}
	var batches []batch
	for _, n := range []int{64, 48} {
		batches = append(batches, batch{randT(r, n, 1, 28, 28), make([]int, n)})
	}
	var ce CrossEntropyLoss
	i := 0
	step := func() {
		b := batches[i%len(batches)]
		i++
		_, d := ce.Loss(m.Forward(b.x), b.labels)
		BackwardParams(m, d)
		w := ParamVector(m)
		for j, g := range GradVector(m) {
			w[j] -= 0.01 * g
		}
	}
	for k := 0; k < 4; k++ {
		step() // size the workspaces, fill the goroutine free list
	}
	mallocs, bytes := testutil.AllocsPer(20, step)
	t.Logf("%.1f mallocs, %.0f bytes per warmed step", mallocs, bytes)
	if mallocs > 64 || bytes > 64<<10 {
		t.Fatalf("a warmed training step made %.1f allocations totalling %.0f bytes; the gate is 64 and 64 KiB", mallocs, bytes)
	}
}

// replicaRun trains a fresh replica in its own vectors for a few SGD steps
// on its own data, with batch sizes that shrink and grow so every
// workspace is re-cut, and returns the final parameters followed by every
// step's loss.
func replicaRun(factory Factory, seed uint64) []float64 {
	m := factory()
	r := rng.New(seed)
	w, grad := ParamVector(m), GradVector(m)
	var ce CrossEntropyLoss
	var losses []float64
	for _, n := range []int{8, 5, 8, 3, 8, 5} {
		x := randT(r, n, 1, 8, 8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(3)
		}
		loss, d := ce.Loss(m.Forward(x), labels)
		BackwardParams(m, d)
		for i, g := range grad {
			w[i] -= 0.1 * g
		}
		losses = append(losses, loss)
	}
	return append(append([]float64(nil), w...), losses...)
}

// replicaEval runs forward passes of a fresh replica over fixed batches and
// returns every loss and correct-count.
func replicaEval(factory Factory, seed uint64) []float64 {
	m := factory()
	r := rng.New(seed)
	var ce CrossEntropyLoss
	var out []float64
	for _, n := range []int{12, 7, 12, 7} {
		x := randT(r, n, 1, 8, 8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(3)
		}
		logits := m.Forward(x)
		loss, _ := ce.Loss(logits, labels)
		out = append(out, loss, float64(Correct(logits, labels)))
	}
	return out
}

// TestReplicasShareNothing: four replicas from one Factory train
// concurrently while a fifth evaluates, and each ends bit for bit where its
// own serial run ends. Layer workspaces belong to a replica; nothing goes
// through a pool another replica could observe. Run it under -race: with a
// shared workspace the detector fires before the comparison does.
func TestReplicasShareNothing(t *testing.T) {
	factory := func() Module {
		return NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, rng.New(7))
	}
	const trainers = 4
	want := make([][]float64, trainers+1)
	for i := 0; i < trainers; i++ {
		want[i] = replicaRun(factory, uint64(100+i))
	}
	want[trainers] = replicaEval(factory, 200)

	got := make([][]float64, trainers+1)
	var wg sync.WaitGroup
	for i := 0; i <= trainers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == trainers {
				got[i] = replicaEval(factory, 200)
			} else {
				got[i] = replicaRun(factory, uint64(100+i))
			}
		}(i)
	}
	wg.Wait()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("replica %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("replica %d value %d: %v concurrently, %v serially", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestForwardResultIsValidUntilNextCall pins the workspace rule from the
// caller's side: the tensor a model returned is overwritten by its next
// Forward (so it must be copied to be kept), and a second replica's calls
// never touch it.
func TestForwardResultIsValidUntilNextCall(t *testing.T) {
	r := rng.New(5)
	a, b := NewMLP(6, []int{5}, 3, rng.New(9)), NewMLP(6, []int{5}, 3, rng.New(9))
	x1, x2 := randT(r, 4, 6), randT(r, 4, 6)
	y1 := a.Forward(x1)
	kept := y1.Clone()
	b.Forward(x2) // another replica: y1 untouched
	if !y1.EqualWithin(kept, 0) {
		t.Fatal("a second replica's Forward changed the first one's output")
	}
	y2 := a.Forward(x2)
	if y2 != y1 {
		t.Fatal("the same-shaped second Forward should reuse the output tensor")
	}
	if y1.EqualWithin(kept, 0) {
		t.Fatal("the reused output still holds the first result; the test inputs are degenerate")
	}
}

// TestTrainingStepWorkspaceBytes pins, to the byte, what a fresh replica of
// the benchmark's CNN allocates over its first training step at batch 64
// (Forward → CrossEntropy → BackwardParams, one worker): every layer's
// workspaces, sized once. The three ReLUs rectify their producers' outputs
// and mask their gradients in place, so none holds an out/dx pair; when
// each did, the step allocated 11,251,696 bytes, 4,849,664 of them those
// pairs. The minimum of three fresh replicas is taken: the runtime's own
// background allocations can only add to one measurement.
func TestTrainingStepWorkspaceBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const want = 6_401_584
	cfg := CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}
	r := rng.New(2)
	x, labels := randT(r, 64, 1, 28, 28), make([]int, 64)
	least := math.Inf(1)
	for k := 0; k < 4; k++ {
		m := NewCNN(cfg, rng.New(1))
		var ce CrossEntropyLoss
		_, bytes := testutil.AllocsPer(1, func() {
			_, d := ce.Loss(m.Forward(x), labels)
			BackwardParams(m, d)
		})
		if k > 0 { // the first step also warms the runtime
			least = min(least, bytes)
		}
	}
	t.Logf("a fresh replica's first training step allocates %.0f bytes", least)
	if least != want {
		t.Fatalf("a fresh replica's first training step allocated %.0f bytes, pinned at %d", least, want)
	}
}

// TestReLUNeverWritesCallerTensors: a ReLU inside a Sequential rectifies
// its producer's output and masks its gradient in place, but never a
// tensor the Sequential's caller passed in — not x when the ReLU comes
// first or behind a Flatten view of x, not dy when it comes last or ahead
// of a Flatten view of dy. Forward, Backward and BackwardParams leave x
// and dy bit-equal to copies taken beforehand, and the outputs and
// parameter gradients equal those of a reference that calls each layer's
// own Forward and Backward, where every ReLU writes workspaces of its own.
func TestReLUNeverWritesCallerTensors(t *testing.T) {
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r := rng.New(8)
			for _, c := range []struct {
				name string
				m    *Sequential
				x    *tensor.Tensor
			}{
				{"relu-first", NewSequential(NewReLU(), NewLinear(6, 5, r), NewReLU(), NewLinear(5, 3, r)), randT(r, 4, 6)},
				{"flatten-relu-first", NewSequential(NewFlatten(), NewReLU(), NewLinear(12, 5, r), NewReLU(), NewLinear(5, 3, r)), randT(r, 4, 3, 2, 2)},
				{"relu-last", NewSequential(NewLinear(6, 5, r), NewReLU(), NewLinear(5, 3, r), NewReLU()), randT(r, 4, 6)},
				{"relu-flatten-last", NewSequential(NewConv2D(1, 2, 3, 1, 1, r), NewReLU(), NewFlatten()), randT(r, 4, 1, 3, 3)},
			} {
				name := fmt.Sprintf("%s GOMAXPROCS=%d", c.name, procs)
				x0 := c.x.Clone()
				dy := randT(r, c.m.Forward(c.x).Shape()...)
				dy0 := dy.Clone()
				requireBits(t, name+" x after the first Forward", c.x.Data(), x0.Data())

				// The reference: each layer's own Forward and Backward.
				y := c.x
				for _, l := range c.m.Layers {
					y = l.Forward(y)
				}
				wantOut := append([]float64(nil), y.Data()...)
				d := dy
				for i := len(c.m.Layers) - 1; i >= 0; i-- {
					d = c.m.Layers[i].Backward(d)
				}
				wantDx := append([]float64(nil), d.Data()...)
				wantGrad := append([]float64(nil), GradVector(c.m)...)
				requireBits(t, name+" reference x", c.x.Data(), x0.Data())
				requireBits(t, name+" reference dy", dy.Data(), dy0.Data())

				requireBits(t, name+" Forward output", c.m.Forward(c.x).Data(), wantOut)
				requireBits(t, name+" x after Forward", c.x.Data(), x0.Data())
				requireBits(t, name+" Backward dx", c.m.Backward(dy).Data(), wantDx)
				requireBits(t, name+" Backward gradients", GradVector(c.m), wantGrad)
				requireBits(t, name+" x after Backward", c.x.Data(), x0.Data())
				requireBits(t, name+" dy after Backward", dy.Data(), dy0.Data())

				clear(GradVector(c.m))
				c.m.Forward(c.x)
				BackwardParams(c.m, dy)
				requireBits(t, name+" BackwardParams gradients", GradVector(c.m), wantGrad)
				requireBits(t, name+" x after BackwardParams", c.x.Data(), x0.Data())
				requireBits(t, name+" dy after BackwardParams", dy.Data(), dy0.Data())
			}
		}()
	}
}
