package core

import (
	"repro/internal/dataset"
	"repro/internal/nn"
)

// Evaluate runs the server-side validation routine of Section II-A.5:
// it computes mean cross-entropy loss and top-1 accuracy of the model on a
// held-out test dataset, batched to bound memory.
func Evaluate(model nn.Module, ds dataset.Dataset, batchSize int) (loss, accuracy float64) {
	if ds.Len() == 0 {
		return 0, 0
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	loader := dataset.NewLoader(ds, batchSize, false, nil)
	var ce nn.CrossEntropyLoss
	totalLoss := 0.0
	correct := 0
	for {
		b, ok := loader.Next()
		if !ok {
			break
		}
		// logits belong to the model until its next Forward: both reads
		// happen before the loop comes round.
		logits := model.Forward(b.X)
		l, _ := ce.Loss(logits, b.Labels)
		totalLoss += l * float64(len(b.Labels))
		correct += nn.Correct(logits, b.Labels)
	}
	n := float64(ds.Len())
	return totalLoss / n, float64(correct) / n
}

// EvaluateWeights loads the flat weight vector into the model and runs
// Evaluate — the form the round runner uses on the global iterate, which is
// the model's own parameter vector there, so the load copies nothing.
func EvaluateWeights(model nn.Module, w []float64, ds dataset.Dataset, batchSize int) (loss, accuracy float64) {
	nn.SetParams(model, w)
	return Evaluate(model, ds, batchSize)
}
