package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// parallelTestFed builds a small IID MNIST federation for the run-level
// determinism sweep.
func parallelTestFed(clients, trainN, testN int, seed uint64) *dataset.Federated {
	train, test := dataset.MNIST(dataset.SynthConfig{Train: trainN, Test: testN, Seed: seed})
	return &dataset.Federated{
		Clients: dataset.PartitionIID(train, clients, rng.New(seed+1)),
		Test:    test,
	}
}

func parallelTestFactory(seed uint64) nn.Factory {
	return func() nn.Module { return nn.NewMLP(28*28, []int{16}, 10, rng.New(seed)) }
}

// testVec builds a deterministic pseudorandom vector.
func testVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	r.FillNormal(v, 0, 1)
	return v
}

// testBatch builds a full-federation batch of dense updates.
func testBatch(clients, dim int, seed uint64) []*wire.LocalUpdate {
	batch := make([]*wire.LocalUpdate, clients)
	for i := range batch {
		batch[i] = &wire.LocalUpdate{
			ClientID:   uint32(i),
			NumSamples: uint64(16 + 7*i),
			Primal:     testVec(dim, seed+uint64(i)),
			Dual:       testVec(dim, seed+100+uint64(i)),
		}
	}
	return batch
}

// aggWidths is the sharded-aggregation width sweep.
var aggWidths = []int{1, 2, 8}

// pinWorkers sets the sharded-aggregation width of an aggregator built by
// NewAggregator; a run's width is GOMAXPROCS.
func pinWorkers(t *testing.T, a Aggregator, err error, workers int) Aggregator {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	switch s := a.(type) {
	case *FedAvgServer:
		s.Workers = workers
	case *BufferedAggregator:
		s.Workers = workers
	case *ICEADMMServer:
		s.Workers = workers
	case *IIADMMServer:
		s.Workers = workers
	default:
		t.Fatalf("no width to pin on %T", a)
	}
	return a
}

// TestShardedAggregationBitIdentical: for every scheduler's aggregator
// (FedAvg behind syncall and sampled, the staleness-weighted rule behind
// buffered) and every algorithm server, widths {1,2,8} produce
// byte-for-byte identical weights over multiple rounds. The dimension is
// chosen well above minShard so the parallel path really shards.
func TestShardedAggregationBitIdentical(t *testing.T) {
	const (
		clients = 3
		dim     = 3*minShard + 17 // odd tail exercises the last partial chunk
		rounds  = 4
	)
	type mk func(workers int) Aggregator

	cases := map[string]mk{
		"syncall/fedavg": func(workers int) Aggregator {
			cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedSyncAll}.WithDefaults()
			a, err := NewAggregator(cfg, testVec(dim, 1), clients)
			return pinWorkers(t, a, err, workers)
		},
		"sampled/fedavg": func(workers int) Aggregator {
			cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedSampled, CohortFraction: 0.5}.WithDefaults()
			a, err := NewAggregator(cfg, testVec(dim, 1), clients)
			return pinWorkers(t, a, err, workers)
		},
		"buffered/staleness": func(workers int) Aggregator {
			cfg := Config{Algorithm: AlgoFedAvg, Scheduler: SchedBuffered, BufferK: 2}.WithDefaults()
			a, err := NewAggregator(cfg, testVec(dim, 1), clients)
			return pinWorkers(t, a, err, workers)
		},
		"iceadmm": func(workers int) Aggregator {
			s := NewICEADMMServer(testVec(dim, 1), clients, 2)
			s.Workers = workers
			return s
		},
		"iiadmm": func(workers int) Aggregator {
			s := NewIIADMMServer(testVec(dim, 1), clients, 2)
			s.Workers = workers
			return s
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			var ref []float64
			for _, workers := range aggWidths {
				agg := build(workers)
				for round := 0; round < rounds; round++ {
					if err := agg.Aggregate(testBatch(clients, dim, uint64(50+round))); err != nil {
						t.Fatalf("workers=%d round %d: %v", workers, round, err)
					}
				}
				got := agg.Weights()
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
						t.Fatalf("workers=%d: weight[%d] = %x, serial %x — not bit-identical",
							workers, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
					}
				}
			}
		})
	}
}

// TestRunBitIdenticalAcrossAggWorkers runs full barrier-scheduled
// federations (transport, training, pipeline, aggregation) at each width —
// a run aggregates GOMAXPROCS wide, so the sweep sets GOMAXPROCS — and
// requires identical per-round losses. Buffered runs are excluded:
// their arrival order is scheduling-dependent, so even two serial runs
// are not comparable round-by-round.
func TestRunBitIdenticalAcrossAggWorkers(t *testing.T) {
	fed := parallelTestFed(4, 256, 64, 5)
	for _, sched := range []string{SchedSyncAll, SchedSampled} {
		t.Run(sched, func(t *testing.T) {
			var ref []float64
			for _, workers := range aggWidths {
				cfg := Config{
					Algorithm: AlgoFedAvg, Rounds: 3, LocalSteps: 1, BatchSize: 32,
					Seed: 5, Scheduler: sched,
				}
				if sched == SchedSampled {
					cfg.CohortFraction = 0.5
				}
				prev := runtime.GOMAXPROCS(workers)
				res, err := Run(cfg, fed, parallelTestFactory(5), RunOptions{})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				losses := make([]float64, len(res.Rounds))
				for i, r := range res.Rounds {
					losses[i] = r.TestLoss
				}
				if ref == nil {
					ref = losses
					continue
				}
				for i := range ref {
					if math.Float64bits(ref[i]) != math.Float64bits(losses[i]) {
						t.Fatalf("workers=%d: round %d loss %v, serial %v", workers, i+1, losses[i], ref[i])
					}
				}
			}
		})
	}
}

// TestDecodeUpdatesParallelMatchesSerial: the fan-out decode produces the
// same dense primals and, on a poisoned batch, the same (lowest-index)
// error as the serial path at every width.
func TestDecodeUpdatesParallelMatchesSerial(t *testing.T) {
	const dim = 512
	cfg := Config{Algorithm: AlgoFedAvg, Pipeline: "clip:1,topk:0.25"}.WithDefaults()
	mkBatch := func() []*wire.LocalUpdate {
		master := rng.New(9)
		batch := make([]*wire.LocalUpdate, 6)
		for i := range batch {
			pipe, err := NewClientPipeline(cfg, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			u := &wire.LocalUpdate{ClientID: uint32(i), NumSamples: 8}
			upd := wire.Payload{Enc: wire.EncDense, Dim: dim, Dense: testVec(dim, uint64(70+i))}
			if err := pipe.Apply(&upd, 0); err != nil {
				t.Fatal(err)
			}
			u.PrimalP = &upd
			batch[i] = u
		}
		return batch
	}

	var ref []*wire.LocalUpdate
	for _, workers := range aggWidths {
		inv, err := NewServerPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := mkBatch()
		if err := DecodeUpdates(batch, inv, dim, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = batch
			continue
		}
		for i, u := range batch {
			if u.PrimalP != nil || len(u.Primal) != dim {
				t.Fatalf("workers=%d: update %d not densified", workers, i)
			}
			for j := range u.Primal {
				if math.Float64bits(u.Primal[j]) != math.Float64bits(ref[i].Primal[j]) {
					t.Fatalf("workers=%d: update %d coord %d differs", workers, i, j)
				}
			}
		}
	}

	// Poison two updates; every width must report the lowest-index one.
	var refErr string
	for _, workers := range aggWidths {
		inv, err := NewServerPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := mkBatch()
		batch[2].PrimalP = &wire.Payload{Enc: wire.EncQuant, Dim: dim, Bits: 8, Codes: make([]byte, dim)}
		batch[4].PrimalP = &wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: make([]byte, 2*dim)}
		err = DecodeUpdates(batch, inv, dim, workers)
		if err == nil {
			t.Fatalf("workers=%d: poisoned batch decoded", workers)
		}
		if refErr == "" {
			refErr = err.Error()
		} else if err.Error() != refErr {
			t.Fatalf("workers=%d: error %q, serial %q", workers, err, refErr)
		}
	}
}

// TestShardedFoldZeroAllocs pins the steady-state allocation count of the
// sharded hot path at zero — for the buffered fold and the FedAvg batch
// average, at serial and parallel widths. The op closures are pre-bound
// at construction and the pool workers are long-lived, so an aggregation
// costs arithmetic, not garbage.
func TestShardedFoldZeroAllocs(t *testing.T) {
	const dim = 8 * minShard
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("buffered/workers=%d", workers), func(t *testing.T) {
			agg, err := NewBufferedAggregator(testVec(dim, 1), 0.5, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			agg.Workers = workers
			batch := []*wire.LocalUpdate{{NumSamples: 8, Primal: testVec(dim, 2)}}
			agg.Aggregate(batch) // warm-up: starts pool workers
			if avg := testing.AllocsPerRun(20, func() {
				if err := agg.Aggregate(batch); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("buffered fold allocates %.1f objects/op at %d workers, want 0", avg, workers)
			}
		})
		t.Run(fmt.Sprintf("fedavg/workers=%d", workers), func(t *testing.T) {
			srv := NewFedAvgServer(testVec(dim, 1), 4)
			srv.Workers = workers
			batch := testBatch(4, dim, 30)
			srv.Aggregate(batch)
			if avg := testing.AllocsPerRun(20, func() {
				if err := srv.Aggregate(batch); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("fedavg aggregate allocates %.1f objects/op at %d workers, want 0", avg, workers)
			}
		})
	}
}

// requireBitEqual fails unless the two weight vectors match bit for bit.
func requireBitEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: dim %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: weight[%d] is %x, want %x — not bit-identical",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
