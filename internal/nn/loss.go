package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// CrossEntropy computes mean softmax cross-entropy loss over a batch of
// logits [N, K] with integer labels, and the gradient of the mean loss with
// respect to the logits, in a fresh tensor. This matches
// torch.nn.CrossEntropyLoss. A training loop keeps a CrossEntropyLoss
// instead, which reuses the gradient's storage.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	return new(CrossEntropyLoss).Loss(logits, labels)
}

// CrossEntropyLoss is CrossEntropy with a gradient tensor it owns: like a
// Module's output, the dlogits Loss returns is valid until the next Loss.
// The zero value is ready; one instance serves one training loop.
type CrossEntropyLoss struct {
	dlogits *tensor.Tensor
}

// Loss returns the mean softmax cross-entropy of logits [N, K] against
// labels and its gradient with respect to the logits.
func (c *CrossEntropyLoss) Loss(logits *tensor.Tensor, labels []int) (loss float64, dlogits *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: CrossEntropy expects [N,K] logits, got %v", logits.Shape()))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	c.dlogits = tensor.Reuse(c.dlogits, n, k)
	invN := 1.0 / float64(n)
	for i, y := range labels {
		drow := c.dlogits.Data()[i*k : (i+1)*k]
		term, sum := CrossEntropyTerm(logits.Data()[i*k:(i+1)*k], y, drow)
		loss += term
		for j := range drow {
			drow[j] = drow[j] / sum * invN
		}
		drow[y] -= invN
	}
	return loss * invN, c.dlogits
}

// CrossEntropyTerm returns one row's softmax cross-entropy term
// −log softmax(row)[y], computed against the row max for stability, and
// sum = Σ_j exp(row[j] − max). When exps is non-nil it receives the
// exp(row[j] − max) values, which Loss turns into the gradient. This is
// the one place the term is formed: Loss sums it over a batch in row
// order, and core.Evaluate over a batch's sub-batches in the same order.
func CrossEntropyTerm(row []float64, y int, exps []float64) (term, sum float64) {
	if y < 0 || y >= len(row) {
		panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, len(row)))
	}
	m := row[0]
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	for j, v := range row {
		e := math.Exp(v - m)
		if exps != nil {
			exps[j] = e
		}
		sum += e
	}
	return -(row[y] - m - math.Log(sum)), sum
}

// Softmax returns row-wise softmax probabilities for logits [N, K].
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic("nn: Softmax expects [N,K]")
	}
	out := logits.Clone()
	n := out.Dim(0)
	for i := 0; i < n; i++ {
		row := out.Row(i).Data()
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			row[j] = math.Exp(v - m)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return out
}

// Correct counts the rows of logits [N, K] whose argmax (first occurrence
// on ties, as Tensor.ArgMax) equals the label.
func Correct(logits *tensor.Tensor, labels []int) int {
	k := logits.Dim(1)
	correct := 0
	for i, y := range labels {
		row := logits.Data()[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == y {
			correct++
		}
	}
	return correct
}

// Accuracy returns the fraction of rows in logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	if n == 0 {
		return 0
	}
	return float64(Correct(logits, labels[:n])) / float64(n)
}
