package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The initial-weights fixture pins what the factory models start from:
// testdata/golden_init.txt holds an FNV-64a hash of FlattenParams of each
// model below, computed at the commit BEFORE the factories built their
// layers over one parameter vector. Only API that commit already had is
// used here, so the file can be dropped into that tree to regenerate it:
//
//	NN_INIT_GOLDEN_WRITE=1 go test ./internal/nn -run TestWriteGoldenInit
//
// Every replica of a federation derives the shared w0 from its factory, so
// a moved rng draw would move every trajectory in the tree.

const goldenInitFile = "testdata/golden_init.txt"

type goldenInitCase struct {
	name  string
	build func() Module
}

func goldenInitModels() []goldenInitCase {
	return []goldenInitCase{
		{"cnn-bench/seed=1", func() Module {
			return NewCNN(CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1))
		}},
		{"cnn-k3/seed=7", func() Module {
			return NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 8}, rng.New(7))
		}},
		{"cnn-rgb/seed=3", func() Module {
			return NewCNN(CNNConfig{InChannels: 3, Height: 12, Width: 10, Classes: 5, Conv1: 6, Conv2: 4, Kernel: 5, Hidden: 16}, rng.New(3))
		}},
		{"mlp-wide/seed=1", func() Module { return NewMLP(784, []int{1280}, 10, rng.New(1)) }},
		{"mlp-deep/seed=99", func() Module { return NewMLP(28*28, []int{16, 8}, 10, rng.New(99)) }},
		{"mlp-nohidden/seed=5", func() Module { return NewMLP(6, nil, 3, rng.New(5)) }},
		{"linear/seed=1", func() Module { return NewLinearModel(28*28, 10, rng.New(1)) }},
	}
}

func goldenInitLines() []string {
	var lines []string
	for _, c := range goldenInitModels() {
		w := FlattenParams(c.build(), nil)
		h := fnv.New64a()
		var b [8]byte
		for _, v := range w {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		lines = append(lines, fmt.Sprintf("%s/params=%d %016x", c.name, len(w), h.Sum64()))
	}
	return lines
}

func TestWriteGoldenInit(t *testing.T) {
	if os.Getenv("NN_INIT_GOLDEN_WRITE") == "" {
		t.Skip("set NN_INIT_GOLDEN_WRITE=1 (in the parent tree) to regenerate " + goldenInitFile)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenInitFile, []byte(strings.Join(goldenInitLines(), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenInitialWeights: every factory model starts, bit for bit, from
// the weights the per-layer-allocating factories drew.
func TestGoldenInitialWeights(t *testing.T) {
	raw, err := os.ReadFile(goldenInitFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenInitLines()
	if len(got) != len(want) {
		t.Fatalf("fixture has %d lines, the generator makes %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("initial weights moved:\n  fixture %s\n  now     %s", want[i], got[i])
		}
	}
}
