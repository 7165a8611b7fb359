package core

// This file holds the one rule of LoRA-style partial-parameter updates
// (Config.SubsetFrac). Every client uploads the same coordinate prefix
// [0, n) of its trained vector as a plain dense primal of n values, and
// the server folds that window exactly as it folds a dense upload —
// FedAvgServer.foldRange(0, n, …) — leaving the tail as it is:
//
//	w[i] ← Σ_u a_u·v_u[i]   for i < n
//	w[i] unchanged          for i ≥ n
//
// with a_u the FedAvg weight (fedAvgWeight) and v_u the uploaded value.
// A prefix coordinate is the plain FedAvg fold of the same uploads bit for
// bit, and a tail coordinate keeps the pre-round model's bits.

// subsetSpan is how many leading coordinates of a dim-coordinate model a
// run with SubsetFrac frac uploads and folds: ⌊frac·dim⌋, at least 1, or
// the whole model when frac is 0.
func subsetSpan(dim int, frac float64) int {
	if frac == 0 {
		return dim
	}
	return max(int(frac*float64(dim)), 1)
}
