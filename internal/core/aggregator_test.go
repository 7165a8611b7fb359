package core

import (
	"math"
	"testing"

	"repro/internal/wire"
)

// TestWeightsAccessorsAreDefensiveCopies is the regression test for the
// documented mutation hazard: GlobalWeights() lends the live slice — every
// aggregator's one model, BaseServer.W — but Weights() must not: a caller
// scribbling over the returned vector cannot corrupt server state.
func TestWeightsAccessorsAreDefensiveCopies(t *testing.T) {
	w0 := func() []float64 { return []float64{1, 2, 3} } // each aggregator owns its own
	aggs := map[string]Aggregator{
		"fedavg":  NewFedAvgServer(w0(), 2),
		"iceadmm": NewICEADMMServer(w0(), 2, 2),
		"iiadmm":  NewIIADMMServer(w0(), 2, 2),
	}
	buf, err := NewBufferedAggregator(w0(), 0.5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	aggs["buffered"] = buf
	for name, a := range aggs {
		w := a.Weights()
		for i := range w {
			w[i] = -999
		}
		if got := a.Weights(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("%s: mutating Weights() corrupted server state: %v", name, got)
		}
		if live, again := a.GlobalWeights(), a.GlobalWeights(); &live[0] != &again[0] || &live[0] == &w[0] {
			t.Fatalf("%s: GlobalWeights is not the one live vector", name)
		}
	}
}

func TestAggregatorVersionAdvancesPerAggregation(t *testing.T) {
	s := NewFedAvgServer([]float64{0}, 2)
	if s.Version() != 0 {
		t.Fatalf("fresh server version %d", s.Version())
	}
	for i := 1; i <= 3; i++ {
		err := s.Aggregate([]*wire.LocalUpdate{
			upd(0, 10, []float64{1}, nil),
			upd(1, 10, []float64{2}, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Version() != i {
			t.Fatalf("after %d aggregations version %d", i, s.Version())
		}
	}
}

// TestFedAvgAggregatePartialCohort: FedAvg accepts fewer updates than
// clients and weights only the received batch.
func TestFedAvgAggregatePartialCohort(t *testing.T) {
	s := NewFedAvgServer([]float64{0, 0}, 4)
	batch := []*wire.LocalUpdate{
		upd(1, 300, []float64{1, 2}, nil),
		upd(3, 100, []float64{5, 6}, nil),
	}
	if err := s.Aggregate(batch); err != nil {
		t.Fatal(err)
	}
	w := s.GlobalWeights()
	if math.Abs(w[0]-2) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Fatalf("partial-cohort average %v, want [2 3]", w)
	}
}

func TestFedAvgAggregateRejectsEmptyAndBadBatches(t *testing.T) {
	s := NewFedAvgServer([]float64{0}, 2)
	if err := s.Aggregate(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := s.Aggregate([]*wire.LocalUpdate{nil}); err == nil {
		t.Fatal("nil update accepted")
	}
	if err := s.Aggregate([]*wire.LocalUpdate{upd(0, 1, []float64{1, 2}, nil)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestStalenessWeightMatchesAsyncRule(t *testing.T) {
	// Fresh update: weight = alpha.
	if got := StalenessWeight(0.8, 1, 0); got != 0.8 {
		t.Fatalf("fresh weight %v, want alpha", got)
	}
	// Staleness 2 with gamma 1: alpha/3.
	if got := StalenessWeight(0.8, 1, 2); math.Abs(got-0.8/3) > 1e-12 {
		t.Fatalf("stale weight %v, want %v", got, 0.8/3)
	}
	// gamma 0 disables the discount.
	if got := StalenessWeight(0.5, 0, 10); got != 0.5 {
		t.Fatalf("gamma=0 weight %v, want alpha", got)
	}
}

func TestBufferedAggregatorValidation(t *testing.T) {
	if _, err := NewBufferedAggregator([]float64{0}, 0, 1, 0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewBufferedAggregator([]float64{0}, 1.5, 1, 0); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := NewBufferedAggregator([]float64{0}, 0.5, -1, 0); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := NewBufferedAggregator([]float64{0}, 0.5, 1, -1); err == nil {
		t.Fatal("negative MaxStaleness accepted")
	}
}

func bupd(id int, baseVersion int, primal ...float64) *wire.LocalUpdate {
	return &wire.LocalUpdate{ClientID: uint32(id), NumSamples: 1, Primal: primal, BaseVersion: uint64(baseVersion)}
}

func TestBufferedAggregatorFoldsWithStalenessDiscount(t *testing.T) {
	b, err := NewBufferedAggregator([]float64{0}, 0.5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Release 1: one fresh update (staleness 0, weight 0.5).
	if err := b.Aggregate([]*wire.LocalUpdate{bupd(0, 0, 4)}); err != nil {
		t.Fatal(err)
	}
	if got := b.Weights()[0]; got != 2 {
		t.Fatalf("after fresh fold w=%v, want 2", got)
	}
	if b.Version() != 1 {
		t.Fatalf("version %d, want 1", b.Version())
	}
	// Release 2: an update still based on version 0 has staleness 1 →
	// weight 0.5/2 = 0.25: w = 0.75*2 + 0.25*6 = 3.
	if err := b.Aggregate([]*wire.LocalUpdate{bupd(1, 0, 6)}); err != nil {
		t.Fatal(err)
	}
	if got := b.Weights()[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("after stale fold w=%v, want 3", got)
	}
	if b.Applied != 2 || b.Dropped != 0 {
		t.Fatalf("applied/dropped %d/%d", b.Applied, b.Dropped)
	}
}

func TestBufferedAggregatorDropsBeyondMaxStaleness(t *testing.T) {
	b, err := NewBufferedAggregator([]float64{1}, 0.5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Advance three versions.
	for i := 0; i < 3; i++ {
		if err := b.Aggregate([]*wire.LocalUpdate{bupd(0, i, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Staleness 3 > MaxStaleness 2: dropped, model untouched, version advances.
	before := b.Weights()[0]
	if err := b.Aggregate([]*wire.LocalUpdate{bupd(1, 0, -100)}); err != nil {
		t.Fatal(err)
	}
	if got := b.Weights()[0]; got != before {
		t.Fatalf("dropped update still moved the model: %v -> %v", before, got)
	}
	if b.Dropped != 1 {
		t.Fatalf("dropped count %d, want 1", b.Dropped)
	}
	if b.Version() != 4 {
		t.Fatalf("version %d, want 4", b.Version())
	}
}

func TestBufferedAggregatorRejectsFutureAndMismatched(t *testing.T) {
	b, err := NewBufferedAggregator([]float64{0, 0}, 0.5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Aggregate([]*wire.LocalUpdate{bupd(0, 5, 1, 2)}); err == nil {
		t.Fatal("future base version accepted")
	}
	if err := b.Aggregate([]*wire.LocalUpdate{bupd(0, 0, 1)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := b.Aggregate(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestNewAggregatorDispatch(t *testing.T) {
	cfg := Config{Algorithm: AlgoFedAvg}.WithDefaults()
	a, err := NewAggregator(cfg, []float64{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*FedAvgServer); !ok {
		t.Fatalf("fedavg aggregator is %T", a)
	}
	cfg = Config{Algorithm: AlgoFedAvg, Scheduler: SchedBuffered}.WithDefaults()
	a, err = NewAggregator(cfg, []float64{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*BufferedAggregator); !ok {
		t.Fatalf("buffered aggregator is %T", a)
	}
	cfg = Config{Algorithm: AlgoIIADMM}.WithDefaults()
	a, err = NewAggregator(cfg, []float64{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*IIADMMServer); !ok {
		t.Fatalf("iiadmm aggregator is %T", a)
	}
}
