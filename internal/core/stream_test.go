package core

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

// streamChunkSizes is the chunk-size matrix of the streaming bit-identity
// sweep: a single-coordinate stream, odd sizes that misalign with the
// kernel block, the worker grain itself, and chunks at/past the model
// dimension (one-chunk degenerate stream).
var streamChunkSizes = []int{1, 17, 1000, minShard, 3*minShard + 17, 1 << 20}

// chunkPayloads slices one contributor's full-model payload into the
// window [lo, hi) — the client-side cut StreamUpload performs.
func chunkPayload(t *testing.T, u *wire.LocalUpdate, lo, hi int) *wire.Payload {
	t.Helper()
	if u.PrimalP != nil {
		p := u.PrimalP
		switch p.Enc {
		case wire.EncFloat16:
			return &wire.Payload{Enc: wire.EncFloat16, Dim: uint32(hi - lo), Codes: p.Codes[2*lo : 2*hi]}
		case wire.EncDense:
			return &wire.Payload{Enc: wire.EncDense, Dim: uint32(hi - lo), Dense: p.Dense[lo:hi]}
		default:
			t.Fatalf("cannot chunk %s payload", p.Enc)
		}
	}
	return &wire.Payload{Enc: wire.EncDense, Dim: uint32(hi - lo), Dense: u.Primal[lo:hi]}
}

// streamRound drives one full round through a StreamSession: Begin with
// the batch's sample counts, fold every chunk of the tiling in order,
// Finish.
func streamRound(t *testing.T, ss *StreamSession, batch []*wire.LocalUpdate, chunk int) {
	t.Helper()
	samples := make([]uint64, len(batch))
	for i, u := range batch {
		samples[i] = u.NumSamples
	}
	if err := ss.Begin(samples); err != nil {
		t.Fatal(err)
	}
	dim := ss.Dim()
	payloads := make([]*wire.Payload, len(batch))
	for c := 0; c < wire.ChunkPlan(dim, chunk); c++ {
		lo, hi := wire.ChunkRange(dim, chunk, c)
		for i, u := range batch {
			if u.NumSamples == 0 {
				payloads[i] = nil
				continue
			}
			payloads[i] = chunkPayload(t, u, lo, hi)
		}
		if err := ss.FoldPayloads(lo, hi, payloads); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBitIdenticalToMonolithic pins the tentpole invariant: for
// every chunk size, worker width, and covered uplink encoding (dense and
// the fused f16 fold), the chunk-by-chunk streamed trajectory is
// byte-for-byte the monolithic Aggregate one over multiple rounds. The
// fold is element-wise with a fixed per-element order (zero, then += in
// batch order), so the chunk tiling is invisible to the arithmetic — this
// sweep keeps it that way.
func TestStreamBitIdenticalToMonolithic(t *testing.T) {
	const (
		clients = 4
		dim     = 3*minShard + 17
		rounds  = 3
	)
	encodings := map[string]string{
		"dense": "",
		"f16":   "clip:1,f16",
	}
	widths := aggWidths
	sizes := streamChunkSizes
	if testing.Short() {
		widths = []int{2}
		sizes = []int{17, minShard}
	}
	for name, pipe := range encodings {
		t.Run(name, func(t *testing.T) {
			for _, chunk := range sizes {
				for _, workers := range widths {
					cfg := Config{Algorithm: AlgoFedAvg, Pipeline: pipe}.WithDefaults()
					mono := NewFedAvgServer(testVec(dim, 1), clients)
					mono.Workers = workers
					streamed := NewFedAvgServer(testVec(dim, 1), clients)
					streamed.Workers = workers
					ss, err := NewStreamSession(streamed)
					if err != nil {
						t.Fatal(err)
					}

					fused := pipe != ""
					if fused {
						inv, err := NewServerPipeline(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if _, ok := EnableFusedFold(mono, inv); !ok {
							t.Fatalf("pipeline %q did not fuse", pipe)
						}
					}

					for round := 0; round < rounds; round++ {
						seed := uint64(300 + round)
						var a, b []*wire.LocalUpdate
						if fused {
							a = encodedBatch(t, cfg, clients, dim, seed, nil)
							b = encodedBatch(t, cfg, clients, dim, seed, nil)
						} else {
							a = testBatch(clients, dim, seed)
							b = testBatch(clients, dim, seed)
						}
						// One zero-weight straggler per round: monolithic skips
						// it, the stream must too.
						a[2].NumSamples, b[2].NumSamples = 0, 0
						if fused {
							if err := DecodeUpdatesFused(a, mono.fused, dim); err != nil {
								t.Fatal(err)
							}
						}
						if err := mono.Aggregate(a); err != nil {
							t.Fatal(err)
						}
						streamRound(t, ss, b, chunk)
					}
					requireBitEqual(t, fmt.Sprintf("%s chunk=%d workers=%d", name, chunk, workers),
						mono.Weights(), streamed.Weights())
					if mono.Version() != streamed.Version() {
						t.Fatalf("versions diverged: %d vs %d", mono.Version(), streamed.Version())
					}
				}
			}
		})
	}
}

// TestStreamSessionLifecycle covers the session's state machine and edge
// rounds: empty cohorts are rejected, zero-mass rounds fold to a no-op
// but still advance the version (Aggregate's contract), folds outside a
// round and double Begins are errors, and only the plain FedAvg server
// qualifies for streaming.
func TestStreamSessionLifecycle(t *testing.T) {
	srv := NewFedAvgServer(testVec(64, 5), 2)
	ss, err := NewStreamSession(srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.FoldPayloads(0, 64, make([]*wire.Payload, 2)); err == nil {
		t.Error("fold outside an open round accepted")
	}
	if err := ss.Finish(); err == nil {
		t.Error("Finish outside an open round accepted")
	}
	if err := ss.Begin(nil); err == nil {
		t.Error("empty cohort accepted")
	}

	// Zero-mass round: weights untouched, version bumped.
	before := srv.Weights()
	if err := ss.Begin([]uint64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Begin([]uint64{1, 1}); err == nil {
		t.Error("double Begin accepted")
	}
	if err := ss.FoldPayloads(0, 64, make([]*wire.Payload, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Finish(); err != nil {
		t.Fatal(err)
	}
	requireBitEqual(t, "zero-mass round", before, srv.Weights())
	if srv.Version() != 1 {
		t.Fatalf("version %d after a zero-mass round, want 1", srv.Version())
	}

	// Window and batch-shape validation.
	if err := ss.Begin([]uint64{3, 5}); err != nil {
		t.Fatal(err)
	}
	if err := ss.FoldPayloads(0, 65, make([]*wire.Payload, 2)); err == nil {
		t.Error("window past the model dimension accepted")
	}
	if err := ss.FoldPayloads(0, 32, make([]*wire.Payload, 3)); err == nil {
		t.Error("payload count mismatch accepted")
	}
	bad := []*wire.Payload{
		{Enc: wire.EncDense, Dim: 16, Dense: make([]float64, 16)},
		{Enc: wire.EncDense, Dim: 32, Dense: make([]float64, 32)},
	}
	if err := ss.FoldPayloads(0, 32, bad); err == nil {
		t.Error("payload narrower than the window accepted")
	}
	sub := []*wire.Payload{
		{Enc: wire.EncSubset, Dim: 32, Indices: []uint32{1}, Values: []float64{1}},
		{Enc: wire.EncDense, Dim: 32, Dense: make([]float64, 32)},
	}
	if err := ss.FoldPayloads(0, 32, sub); err == nil {
		t.Error("subset payload folded chunk-wise")
	}

	// Ineligible servers.
	if _, err := NewStreamSession(NewIIADMMServer(testVec(8, 1), 2, 2)); err == nil {
		t.Error("ADMM server accepted for streaming")
	}
}
