package core

import (
	"repro/internal/dataset"
	"repro/internal/nn"
)

// evalSubBatch is the most samples one forward pass of Evaluate carries, so
// the evaluated model keeps activations for this many samples whatever the
// test set's size or the batchSize argument. It is the default training
// batch (Config.BatchSize): a replica that also trains, as every
// RunDecentralized node does, already holds workspaces of this size, and a
// smaller pass would only add per-pass overhead to the CNN's forward.
const evalSubBatch = 64

// Evaluate runs the server-side validation routine of Section II-A.5:
// it computes mean cross-entropy loss and top-1 accuracy of the model on a
// held-out test dataset, batched to bound memory.
//
// The loss is accounted per batchSize group, as the mean loss of each batch
// weighted by its size: within a group of m rows the per-row terms are
// summed in row order, then scaled by 1/m and by m, exactly as
// CrossEntropyLoss.Loss and a one-pass evaluation of the group would. The
// forward pass runs over sub-batches of at most evalSubBatch samples, which
// changes no bit: a sample's logits do not depend on the batch it rides in
// (every kernel sums each output element on its own, and conv, pool, ReLU
// and bias act per sample), and the group sums take the same terms in the
// same order.
func Evaluate(model nn.Module, ds dataset.Dataset, batchSize int) (loss, accuracy float64) {
	n := ds.Len()
	if n == 0 {
		return 0, 0
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	loader := dataset.NewLoader(ds, evalSubBatch, false, nil)
	totalLoss, groupLoss := 0.0, 0.0
	correct, row := 0, 0
	for {
		b, ok := loader.Next()
		if !ok {
			break
		}
		// logits belong to the model until its next Forward: every read
		// happens before the loop comes round.
		logits := model.Forward(b.X)
		k := logits.Dim(1)
		for i, y := range b.Labels {
			term, _ := nn.CrossEntropyTerm(logits.Data()[i*k:(i+1)*k], y, nil)
			groupLoss += term
			if row++; row%batchSize == 0 || row == n {
				size := float64((row-1)%batchSize + 1)
				mean := groupLoss * (1.0 / size)
				totalLoss += mean * size
				groupLoss = 0
			}
		}
		correct += nn.Correct(logits, b.Labels)
	}
	return totalLoss / float64(n), float64(correct) / float64(n)
}

// EvaluateWeights loads the flat weight vector into the model and runs
// Evaluate — the form the round runner uses on the global iterate, which is
// the model's own parameter vector there, so the load copies nothing.
func EvaluateWeights(model nn.Module, w []float64, ds dataset.Dataset, batchSize int) (loss, accuracy float64) {
	nn.SetParams(model, w)
	return Evaluate(model, ds, batchSize)
}
