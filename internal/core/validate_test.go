package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
)

// evaluateOnePass is Evaluate as it was before it ran in sub-batches: each
// batchSize group goes through the model in one forward pass.
func evaluateOnePass(model nn.Module, ds dataset.Dataset, batchSize int) (loss, accuracy float64) {
	loader := dataset.NewLoader(ds, batchSize, false, nil)
	var ce nn.CrossEntropyLoss
	totalLoss := 0.0
	correct := 0
	for {
		b, ok := loader.Next()
		if !ok {
			break
		}
		logits := model.Forward(b.X)
		l, _ := ce.Loss(logits, b.Labels)
		totalLoss += l * float64(len(b.Labels))
		correct += nn.Correct(logits, b.Labels)
	}
	n := float64(ds.Len())
	return totalLoss / n, float64(correct) / n
}

// prefix is the first n samples of ds as an InMemory dataset, whose
// loader views its storage as a run's test set's does.
func prefix(ds dataset.Dataset, n int) *dataset.InMemory {
	b := dataset.Collate(ds, seq(n))
	return dataset.NewInMemory(b.X, b.Labels, ds.Classes())
}

// TestEvaluateSubBatchesBitIdentical: Evaluate, which runs the forward pass
// over sub-batches of at most evalSubBatch samples, returns the loss and
// accuracy bits of a one-pass evaluation of every batchSize group — for
// the benchmark's CNN and its wide MLP, over test sets on both sides of
// the sub-batch and batch edges, at batch sizes below, at and above the
// sub-batch. A collated (non-InMemory) test set is checked as well.
func TestEvaluateSubBatchesBitIdentical(t *testing.T) {
	_, test := dataset.MNIST(dataset.SynthConfig{Train: 16, Test: 600, Seed: 7})
	models := map[string]nn.Module{
		"cnn": nn.NewCNN(nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, rng.New(1)),
		"mlp": nn.NewMLP(784, []int{1280}, 10, rng.New(1)),
	}
	for name, m := range models {
		for _, n := range []int{1, 63, 64, 65, 240, 257, 600} {
			sets := map[string]dataset.Dataset{"view": prefix(test, n)}
			if name == "cnn" {
				sets["collated"] = dataset.NewSubset(test, seq(n))
			}
			for kind, ds := range sets {
				for _, batch := range []int{1, 64, 256} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/batch=%d", name, kind, n, batch), func(t *testing.T) {
						loss, acc := Evaluate(m, ds, batch)
						wantLoss, wantAcc := evaluateOnePass(m, ds, batch)
						if math.Float64bits(loss) != math.Float64bits(wantLoss) || math.Float64bits(acc) != math.Float64bits(wantAcc) {
							t.Fatalf("sub-batched %.17g/%.17g, one pass %.17g/%.17g", loss, acc, wantLoss, wantAcc)
						}
					})
				}
			}
		}
	}
}

// TestSkippedValidationReadsAbsent: a round that skips validation
// (ValidateEvery 2 over 3 rounds: round 1) is kept with Validated false
// and printed as "acc -  loss -", never as a model at zero accuracy and
// zero loss; rounds 2 and 3 (the last always validates) carry their
// figures. The progress writer still gets exactly one line per round.
func TestSkippedValidationReadsAbsent(t *testing.T) {
	var progress strings.Builder
	cfg := Config{Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 16, Seed: 2}
	res, err := Run(cfg, tinyFed(t, 2, 64, 16), tinyFactory(), RunOptions{ValidateEvery: 2, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(progress.String(), "\n"), "\n")
	if len(lines) != 3 || len(res.Rounds) != 3 {
		t.Fatalf("%d progress lines and %d rounds for 3 rounds:\n%s", len(lines), len(res.Rounds), progress.String())
	}
	for i, rs := range res.Rounds {
		validated := rs.Round != 1
		absent := strings.Contains(lines[i], "acc -  loss -")
		if rs.Validated != validated || absent == validated {
			t.Fatalf("round %d: Validated %v, line %q; want validated %v", rs.Round, rs.Validated, lines[i], validated)
		}
		if validated && (rs.TestAcc == 0 || !strings.Contains(lines[i], fmt.Sprintf("acc %.4f  loss %.4f", rs.TestAcc, rs.TestLoss))) {
			t.Fatalf("round %d: acc %v loss %v, line %q", rs.Round, rs.TestAcc, rs.TestLoss, lines[i])
		}
	}
}
