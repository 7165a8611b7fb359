package core

import (
	"math"
	"testing"

	"repro/internal/wire"
)

// subsetBatch builds a batch whose contributors upload the coordinate
// prefix [0, n) of their trained vectors as subset payloads.
func subsetTestBatch(clients, dim, n int, seed uint64, samples func(i int) uint64) []*wire.LocalUpdate {
	batch := make([]*wire.LocalUpdate, clients)
	for i := range batch {
		full := testVec(dim, seed+uint64(i))
		batch[i] = &wire.LocalUpdate{
			ClientID:   uint32(i),
			NumSamples: samples(i),
			PrimalP:    BuildSubsetPayload(full, float64(n)/float64(dim)),
		}
	}
	return batch
}

// TestSubsetFullCoverageMatchesFedAvg: equal-weight subsets covering
// every coordinate must reproduce the plain FedAvg fold bit for bit —
// the weights sum to exactly 1, so the retained-mass factor is exactly
// zero and the scatter sums run in the dense kernel's per-element order.
func TestSubsetFullCoverageMatchesFedAvg(t *testing.T) {
	const clients, dim = 4, 1000
	for _, workers := range aggWidths {
		dense := NewFedAvgServer(testVec(dim, 7), clients)
		dense.Workers = workers
		sub := NewFedAvgServer(testVec(dim, 7), clients)
		sub.Workers = workers
		for round := 0; round < 3; round++ {
			seed := uint64(40 + round)
			a := testBatch(clients, dim, seed)
			for _, u := range a {
				u.NumSamples = 8 // equal weights: 4 × 0.25 sums to exactly 1
			}
			b := subsetTestBatch(clients, dim, dim, seed, func(int) uint64 { return 8 })
			if err := dense.Aggregate(a); err != nil {
				t.Fatal(err)
			}
			if err := sub.Aggregate(b); err != nil {
				t.Fatal(err)
			}
		}
		requireBitEqual(t, "full-coverage subset", dense.Weights(), sub.Weights())
		if dense.Version() != sub.Version() {
			t.Fatalf("versions diverged: %d vs %d", dense.Version(), sub.Version())
		}
	}
}

// TestSubsetPartialCoverage: coordinates outside every subset must keep
// their global values exactly, and listed coordinates must mix uploaded
// and retained mass per the scatter-fold rule.
func TestSubsetPartialCoverage(t *testing.T) {
	const clients, dim, n = 3, 64, 16
	w0 := testVec(dim, 11)
	s := NewFedAvgServer(append([]float64(nil), w0...), clients)
	batch := subsetTestBatch(clients, dim, n, 21, func(i int) uint64 { return uint64(10 * (i + 1)) })
	if err := s.Aggregate(batch); err != nil {
		t.Fatal(err)
	}
	w := s.Weights()
	// Unlisted coordinates: untouched bits.
	for i := n; i < dim; i++ {
		if math.Float64bits(w[i]) != math.Float64bits(w0[i]) {
			t.Fatalf("unlisted coordinate %d changed: %v -> %v", i, w0[i], w[i])
		}
	}
	// Listed coordinates: acc + (1-mass)·w0 computed independently.
	total := 10.0 + 20.0 + 30.0
	for i := 0; i < n; i++ {
		acc, mass := 0.0, 0.0
		for c := 0; c < clients; c++ {
			a := float64(10*(c+1)) / total
			acc += a * batch[c].PrimalP.Values[i]
			mass += a
		}
		want := acc + (1-mass)*w0[i]
		if math.Float64bits(w[i]) != math.Float64bits(want) {
			t.Fatalf("listed coordinate %d: got %v, want %v", i, w[i], want)
		}
	}
}

// TestSubsetBatchValidation: heterogeneous rounds, dimension mismatches,
// and ineligible servers are rejected; zero-weight stragglers may ride
// without a payload.
func TestSubsetBatchValidation(t *testing.T) {
	const clients, dim = 3, 32
	s := NewFedAvgServer(testVec(dim, 1), clients)

	mixed := subsetTestBatch(clients, dim, 8, 5, func(int) uint64 { return 4 })
	mixed[1] = &wire.LocalUpdate{ClientID: 1, NumSamples: 4, Primal: testVec(dim, 6)}
	if err := s.Aggregate(mixed); err == nil {
		t.Error("full update accepted into a subset round")
	}

	bad := subsetTestBatch(clients, dim, 8, 5, func(int) uint64 { return 4 })
	bad[0].PrimalP.Dim = dim / 2
	bad[0].PrimalP.Values = bad[0].PrimalP.Values[:0]
	bad[0].PrimalP.Indices = bad[0].PrimalP.Indices[:0]
	if err := s.Aggregate(bad); err == nil {
		t.Error("subset over the wrong dimension accepted")
	}

	// A zero-weight contributor without a payload is a legal straggler.
	lazy := subsetTestBatch(clients, dim, 8, 5, func(int) uint64 { return 4 })
	lazy[2].NumSamples = 0
	lazy[2].PrimalP = nil
	if err := s.Aggregate(lazy); err != nil {
		t.Errorf("zero-weight payload-less straggler rejected: %v", err)
	}
}
