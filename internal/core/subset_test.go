package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/wire"
)

// subsetTestBatch builds a batch whose contributors upload the coordinate
// prefix [0, n) of their trained vectors, as a subset run's clients do.
func subsetTestBatch(clients, dim, n int, seed uint64, samples func(i int) uint64) []*wire.LocalUpdate {
	batch := make([]*wire.LocalUpdate, clients)
	for i := range batch {
		batch[i] = &wire.LocalUpdate{
			ClientID:   uint32(i),
			NumSamples: samples(i),
			Primal:     testVec(dim, seed+uint64(i))[:n],
		}
	}
	return batch
}

// TestSubsetFullCoverageMatchesFedAvg: equal-weight prefixes covering
// every coordinate must reproduce the plain FedAvg fold bit for bit. With
// ten clients the weights sum to 1 − 1.1e-16, so a fold that also keeps
// (1 − Σa)·w of the old model would not.
func TestSubsetFullCoverageMatchesFedAvg(t *testing.T) {
	const dim = 1000
	for _, clients := range []int{4, 10} {
		for _, workers := range aggWidths {
			t.Run(fmt.Sprintf("clients=%d/workers=%d", clients, workers), func(t *testing.T) {
				dense := NewFedAvgServer(testVec(dim, 7), clients)
				dense.Workers = workers
				sub := NewFedAvgServer(testVec(dim, 7), clients)
				sub.Workers = workers
				sub.span = dim
				for round := 0; round < 3; round++ {
					seed := uint64(40 + round)
					a := testBatch(clients, dim, seed)
					for _, u := range a {
						u.NumSamples = 8
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
			})
		}
	}
}

// TestSubsetPartialCoverage: a SubsetFrac aggregator folds the prefix
// ⌊frac·dim⌋ to the plain FedAvg fold of the uploads and keeps every tail
// coordinate's bits.
func TestSubsetPartialCoverage(t *testing.T) {
	const clients, dim = 3, 64
	w0 := testVec(dim, 11)
	agg, err := NewAggregator(Config{Algorithm: AlgoFedAvg, SubsetFrac: 0.26}.WithDefaults(),
		append([]float64(nil), w0...), clients)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16 // ⌊0.26·64⌋
	batch := subsetTestBatch(clients, dim, n, 21, func(i int) uint64 { return uint64(10 * (i + 1)) })
	if err := agg.Aggregate(batch); err != nil {
		t.Fatal(err)
	}
	w := agg.Weights()
	for i := n; i < dim; i++ {
		if math.Float64bits(w[i]) != math.Float64bits(w0[i]) {
			t.Fatalf("tail coordinate %d changed: %v -> %v", i, w0[i], w[i])
		}
	}
	total := 10.0 + 20.0 + 30.0
	for i := 0; i < n; i++ {
		want := 0.0
		for c := 0; c < clients; c++ {
			want += float64(10*(c+1)) / total * batch[c].Primal[i]
		}
		if math.Float64bits(w[i]) != math.Float64bits(want) {
			t.Fatalf("prefix coordinate %d: got %v, want %v", i, w[i], want)
		}
	}
	for _, c := range []struct {
		dim  int
		frac float64
		want int
	}{{10, 0.25, 2}, {3, 0.1, 1}, {7, 0, 7}} {
		if got := subsetSpan(c.dim, c.frac); got != c.want {
			t.Errorf("subsetSpan(%d, %v) = %d, want %d", c.dim, c.frac, got, c.want)
		}
	}
}

// TestSubsetBatchValidation: a full update in a prefix round and a prefix
// of the wrong span are rejected; a zero-weight straggler may ride
// without a primal in a prefix round, but not in a dense one.
func TestSubsetBatchValidation(t *testing.T) {
	const clients, dim, n = 3, 32, 8
	s := NewFedAvgServer(testVec(dim, 1), clients)
	s.span = n

	mixed := subsetTestBatch(clients, dim, n, 5, func(int) uint64 { return 4 })
	mixed[1] = &wire.LocalUpdate{ClientID: 1, NumSamples: 4, Primal: testVec(dim, 6)}
	if err := s.Aggregate(mixed); err == nil {
		t.Error("full update accepted into a subset round")
	}

	bad := subsetTestBatch(clients, dim, n, 5, func(int) uint64 { return 4 })
	bad[0].Primal = bad[0].Primal[:n/2]
	if err := s.Aggregate(bad); err == nil {
		t.Error("prefix of the wrong span accepted")
	}

	lazy := subsetTestBatch(clients, dim, n, 5, func(int) uint64 { return 4 })
	lazy[2].NumSamples = 0
	lazy[2].Primal = nil
	if err := s.Aggregate(lazy); err != nil {
		t.Errorf("zero-weight primal-less straggler rejected: %v", err)
	}
	dense := NewFedAvgServer(testVec(dim, 1), clients)
	lazy = testBatch(clients, dim, 5)
	lazy[2].NumSamples = 0
	lazy[2].Primal = nil
	if err := dense.Aggregate(lazy); err == nil {
		t.Error("dense round accepted an update without a primal")
	}
}
