package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The golden fixture pins the training arithmetic across kernel rewrites:
// testdata/golden_grads.txt holds an FNV-64a hash of the flattened gradient
// after each of three consecutive SGD steps of the benchmark's two models,
// computed at the commit BEFORE the register-tiled kernels and layer-owned
// workspaces landed. This file uses only the API that commit already had,
// so it can be dropped into that older tree to regenerate the fixture:
//
//	NN_GOLDEN_WRITE=1 go test ./internal/nn -run TestWriteGoldenGrads
//
// Regenerating from the current tree would only pin the kernels to
// themselves.
//
// The steps run on ONE replica and the CNN's batch sizes go 64, 48, 64 (an
// epoch of 240 samples ends on a batch of 48), so a layer that lets the
// tail of a larger, earlier batch leak out of its reused workspace fails
// here. A Conv2D weight gradient is summed over min(GOMAXPROCS, N) sample
// chunks, so the fixture has one set of hashes per GOMAXPROCS.

const goldenGradsFile = "testdata/golden_grads.txt"

type goldenGradCase struct {
	name    string
	build   func() *Sequential
	inShape []int // per-sample input shape
	batches []int
}

func goldenGradCases() []goldenGradCase {
	return []goldenGradCase{
		{
			// cnn_iiadmm's model (benchmark/workloads.go).
			name: "cnn",
			build: func() *Sequential {
				return NewCNN(CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1))
			},
			inShape: []int{1, 28, 28},
			batches: []int{64, 48, 64},
		},
		{
			// The wide_* workloads' model.
			name:    "mlp",
			build:   func() *Sequential { return NewMLP(784, []int{1280}, 10, rng.New(1)) },
			inShape: []int{1, 28, 28},
			batches: []int{16, 16, 16},
		},
	}
}

// goldenGradHashes runs the case's steps at the current GOMAXPROCS and
// returns one hash per step. With zeroed set, every gradient is cleared
// before its step, as the fixture's generating tree had to; without it the
// gradients hold NaN before the first step and the previous step's
// gradient before every later one.
func goldenGradHashes(c goldenGradCase, zeroed bool) []uint64 {
	m := c.build()
	r := rng.New(42)
	w := FlattenParams(m, nil)
	if !zeroed {
		for _, p := range m.Params() {
			p.Grad.Fill(math.NaN())
		}
	}
	var grad []float64
	hashes := make([]uint64, 0, len(c.batches))
	for _, n := range c.batches {
		x := tensor.New(append([]int{n}, c.inShape...)...)
		r.FillNormal(x.Data(), 0, 1)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(10)
		}
		SetParams(m, w)
		if zeroed {
			for _, p := range m.Params() {
				p.Grad.Zero()
			}
		}
		_, d := CrossEntropy(m.Forward(x), labels)
		BackwardParams(m, d)
		grad = FlattenGrads(m, grad)
		h := fnv.New64a()
		var b [8]byte
		for _, g := range grad {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(g))
			h.Write(b[:])
		}
		hashes = append(hashes, h.Sum64())
		for i, g := range grad {
			w[i] -= 0.05 * g
		}
	}
	return hashes
}

// goldenGradLines renders the whole fixture: every case at GOMAXPROCS 1
// and 2.
func goldenGradLines(zeroed bool) []string {
	var lines []string
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range goldenGradCases() {
			for step, h := range goldenGradHashes(c, zeroed) {
				lines = append(lines, fmt.Sprintf("%s/procs=%d/step=%d/batch=%d %016x", c.name, procs, step, c.batches[step], h))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	return lines
}

func TestWriteGoldenGrads(t *testing.T) {
	if os.Getenv("NN_GOLDEN_WRITE") == "" {
		t.Skip("set NN_GOLDEN_WRITE=1 (in the parent tree) to regenerate " + goldenGradsFile)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenGradsFile, []byte(strings.Join(goldenGradLines(true), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenGradients: three consecutive training steps of the benchmark's
// CNN and MLP produce, bit for bit, the gradients the pre-kernel code
// produced at the same GOMAXPROCS.
func TestGoldenGradients(t *testing.T) { checkGoldenGrads(t, true) }

// TestBackwardOverwritesParameterGradients: Backward writes every Linear
// and Conv2D gradient rather than adding to it. With NaN in every gradient
// before the first step and the previous step's gradient before each later
// one, a single BackwardParams per step still gives the fixture's bits —
// those of a gradient cleared first — at GOMAXPROCS 1 and 2.
func TestBackwardOverwritesParameterGradients(t *testing.T) { checkGoldenGrads(t, false) }

func checkGoldenGrads(t *testing.T, zeroed bool) {
	raw, err := os.ReadFile(goldenGradsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenGradLines(zeroed)
	if len(got) != len(want) {
		t.Fatalf("fixture has %d lines, the generator makes %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gradient hash moved:\n  fixture %s\n  now     %s", want[i], got[i])
		}
	}
}
