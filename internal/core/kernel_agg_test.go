package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// encodedBatch builds a batch of pipeline-compressed updates. Rebuilding
// with the same seed reproduces identical payloads (the quantizer's
// stochastic rounding draws from the seeded client streams), so the
// two-pass and fused paths can consume independent but equal copies.
func encodedBatch(t *testing.T, cfg Config, clients, dim int, seed uint64, baseVersions []uint64) []*wire.LocalUpdate {
	t.Helper()
	master := rng.New(seed)
	batch := make([]*wire.LocalUpdate, clients)
	for i := range batch {
		pipe, err := NewClientPipeline(cfg, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		upd := pipeline.NewDense(testVec(dim, seed+uint64(10*i)))
		if err := pipe.Apply(upd, 0); err != nil {
			t.Fatal(err)
		}
		u := &wire.LocalUpdate{ClientID: uint32(i), NumSamples: uint64(16 + 7*i), PrimalP: upd}
		if baseVersions != nil {
			u.BaseVersion = baseVersions[i]
		}
		batch[i] = u
	}
	return batch
}

// TestFusedFoldBitIdenticalToTwoPass pins the tentpole invariant: for
// every fusable encoding, every scheduler's aggregation rule, and every
// worker width, folding still-encoded payloads (DecodeUpdatesFused +
// fused kernels) produces byte-for-byte the weights of the two-pass path
// (DecodeUpdates densify, then fold).
func TestFusedFoldBitIdenticalToTwoPass(t *testing.T) {
	const (
		clients = 4
		dim     = 3*minShard + 17
		rounds  = 3
	)
	schedCases := map[string]Config{
		"syncall/fedavg":     {Algorithm: AlgoFedAvg, Scheduler: SchedSyncAll},
		"sampled/fedavg":     {Algorithm: AlgoFedAvg, Scheduler: SchedSampled, CohortFraction: 0.5},
		"buffered/staleness": {Algorithm: AlgoFedAvg, Scheduler: SchedBuffered, BufferK: 2},
	}
	for _, spec := range []string{"clip:1,f16", "clip:1,quantize:8", "clip:1,quantize:12"} {
		for name, base := range schedCases {
			t.Run(fmt.Sprintf("%s/%s", spec, name), func(t *testing.T) {
				for _, workers := range aggWidths {
					cfg := base
					cfg.Pipeline = spec
					cfg = cfg.WithDefaults()
					inv, err := NewServerPipeline(cfg)
					if err != nil {
						t.Fatal(err)
					}

					twoPass, err := NewAggregator(cfg, testVec(dim, 1), clients)
					twoPass = pinWorkers(t, twoPass, err, workers)
					fusedAgg, err := NewAggregator(cfg, testVec(dim, 1), clients)
					fusedAgg = pinWorkers(t, fusedAgg, err, workers)
					fs, ok := EnableFusedFold(fusedAgg, inv)
					if !ok {
						t.Fatalf("pipeline %q did not fuse", spec)
					}

					for round := 0; round < rounds; round++ {
						// Buffered rounds replay earlier base versions so some
						// folds carry staleness > 0.
						var bases []uint64
						if cfg.Scheduler == SchedBuffered && round > 0 {
							bases = make([]uint64, clients)
							for i := range bases {
								bases[i] = uint64(round - 1 + i%2)
							}
						}
						seed := uint64(40 + round)
						a := encodedBatch(t, cfg, clients, dim, seed, bases)
						b := encodedBatch(t, cfg, clients, dim, seed, bases)

						if err := DecodeUpdates(a, inv, dim, workers); err != nil {
							t.Fatal(err)
						}
						if err := twoPass.Aggregate(a); err != nil {
							t.Fatal(err)
						}
						if err := DecodeUpdatesFused(b, fs, dim); err != nil {
							t.Fatal(err)
						}
						if err := fusedAgg.Aggregate(b); err != nil {
							t.Fatal(err)
						}
					}
					want, got := twoPass.Weights(), fusedAgg.Weights()
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
							t.Fatalf("workers=%d: weight[%d] fused %x, two-pass %x — not bit-identical",
								workers, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			})
		}
	}
}

// TestFusedFoldGating: fusion must engage only when both the stack and
// the aggregator support it.
func TestFusedFoldGating(t *testing.T) {
	const dim = 64
	mkPipe := func(spec string) *pipeline.Pipeline {
		cfg := Config{Algorithm: AlgoFedAvg, Pipeline: spec}.WithDefaults()
		inv, err := NewServerPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	fedavg := NewFedAvgServer(testVec(dim, 1), 2)
	if _, ok := EnableFusedFold(fedavg, mkPipe("clip:1")); ok {
		t.Error("dense pipeline fused — there is nothing to fuse")
	}
	if _, ok := EnableFusedFold(fedavg, mkPipe("clip:1,topk:0.5")); ok {
		t.Error("topk pipeline fused — scatter is not a per-coordinate decode")
	}
	if _, ok := EnableFusedFold(fedavg, mkPipe("clip:1,f16")); !ok {
		t.Error("f16 pipeline did not fuse for FedAvg")
	}
	ice := NewICEADMMServer(testVec(dim, 1), 2, 2)
	if _, ok := EnableFusedFold(ice, mkPipe("clip:1,f16")); ok {
		t.Error("ADMM server fused — it has no encoded-source fold")
	}
}

// TestDecodeUpdatesFusedRejects: the fused screen must enforce the same
// anti-smuggling and anti-DoS rules as the two-pass path.
func TestDecodeUpdatesFusedRejects(t *testing.T) {
	const dim = 64
	cfg := Config{Algorithm: AlgoFedAvg, Pipeline: "clip:1,f16"}.WithDefaults()
	inv, err := NewServerPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := inv.Fused()
	if !ok {
		t.Fatal("f16 stack did not fuse")
	}
	mk := func(p *wire.Payload) []*wire.LocalUpdate {
		return []*wire.LocalUpdate{{ClientID: 3, NumSamples: 8, PrimalP: p}}
	}
	if err := DecodeUpdatesFused(mk(&wire.Payload{Enc: wire.EncFloat16, Dim: 1 << 30, Codes: nil}), fs, dim); err == nil {
		t.Error("oversized payload dimension accepted")
	}
	if err := DecodeUpdatesFused(mk(&wire.Payload{Enc: wire.EncQuant, Dim: dim, Bits: 8, Codes: make([]byte, dim)}), fs, dim); err == nil {
		t.Error("smuggled quant encoding accepted by an f16 stack")
	}
	if err := DecodeUpdatesFused(mk(&wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: make([]byte, 3)}), fs, dim); err == nil {
		t.Error("structurally invalid payload accepted")
	}
	good := mk(&wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: make([]byte, 2*dim)})
	if err := DecodeUpdatesFused(good, fs, dim); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
	if good[0].PrimalP == nil {
		t.Error("fused screen densified the payload — it must stay encoded")
	}
}

// TestRunWithFusedPipelineAndF16Downlink: the full runner path with a
// fused f16 upload stack and the f16 downlink completes and produces a
// finite model.
func TestRunWithFusedPipelineAndF16Downlink(t *testing.T) {
	fed := parallelTestFed(3, 96, 32, 21)
	cfg := Config{
		Algorithm: AlgoFedAvg, Rounds: 2, LocalSteps: 1, BatchSize: 32, Seed: 21,
		Pipeline: "clip:1,f16", DownlinkF16: true,
	}
	res, err := Run(cfg, fed, parallelTestFactory(21), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(res.Rounds))
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("fused f16 run produced loss %v", res.FinalLoss)
	}
}

// TestFusedAggregateZeroAllocs extends the steady-state allocation pin to
// the fused path: folding still-encoded f16 payloads must not allocate.
func TestFusedAggregateZeroAllocs(t *testing.T) {
	const dim = 8 * minShard
	cfg := Config{Algorithm: AlgoFedAvg, Pipeline: "clip:1,f16"}.WithDefaults()
	inv, err := NewServerPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		srv := NewFedAvgServer(testVec(dim, 1), 4)
		srv.Workers = workers
		fs, ok := EnableFusedFold(srv, inv)
		if !ok {
			t.Fatal("f16 stack did not fuse")
		}
		batch := encodedBatch(t, cfg, 4, dim, 31, nil)
		if err := DecodeUpdatesFused(batch, fs, dim); err != nil {
			t.Fatal(err)
		}
		srv.Aggregate(batch) // warm-up: starts pool workers, sizes scratch
		if avg := testing.AllocsPerRun(20, func() {
			if err := srv.Aggregate(batch); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("fused aggregate allocates %.1f objects/op at %d workers, want 0", avg, workers)
		}
	}
}
