package comm

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// streamVec builds a deterministic vector distinct per client.
func streamVec(dim int, client int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = float64(client+1) * (float64(i)*0.5 - 3)
	}
	return v
}

// runStream drives one full streamed round over a pipe: every client
// uploads concurrently, the gather reassembles each client's vector from
// the chunk payloads. Returns the reassembled vectors and stats.
func runStream(t *testing.T, pipe *ChunkPipe, clients, dim, chunk int) ([][]float64, *StreamStats) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			u := &wire.LocalUpdate{
				ClientID:   uint32(id),
				Round:      1,
				NumSamples: uint64(10 + id),
				Primal:     streamVec(dim, id),
			}
			errs[id] = StreamUpload(pipe.Client(id), u, chunk)
		}(id)
	}
	rebuilt := make([][]float64, clients)
	for i := range rebuilt {
		rebuilt[i] = make([]float64, dim)
	}
	st, err := StreamGather(pipe, AllClients(clients), 1, dim, chunk,
		func(samples []uint64) error {
			for i, n := range samples {
				if n != uint64(10+i) {
					t.Errorf("client %d samples %d, want %d", i, n, 10+i)
				}
			}
			return nil
		},
		func(lo, hi int, payloads []*wire.Payload) error {
			for i, p := range payloads {
				copy(rebuilt[i][lo:hi], p.Dense)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := AckStream(pipe, AllClients(clients), 1, dim, chunk); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d upload: %v", id, err)
		}
	}
	return rebuilt, st
}

// TestStreamUploadGather: a lossless streamed round reassembles every
// client's vector bit for bit, and the gather's resident window stays
// O(cohort × chunk) — far below one full model.
func TestStreamUploadGather(t *testing.T) {
	const clients, dim, chunk = 3, 1000, 64
	pipe := NewChunkPipe(clients)
	rebuilt, st := runStream(t, pipe, clients, dim, chunk)
	for id := range rebuilt {
		want := streamVec(dim, id)
		for i := range want {
			if math.Float64bits(rebuilt[id][i]) != math.Float64bits(want[i]) {
				t.Fatalf("client %d coordinate %d not bit-identical", id, i)
			}
		}
	}
	if st.Chunks != clients*wire.ChunkPlan(dim, chunk) {
		t.Errorf("folded %d chunks, want %d", st.Chunks, clients*wire.ChunkPlan(dim, chunk))
	}
	// One full dense model is dim*8 bytes; the window must be well under.
	if full := dim * 8; st.PeakBytes >= full {
		t.Errorf("peak resident %d bytes >= one full model (%d)", st.PeakBytes, full)
	}
	if st.PeakBytes == 0 {
		t.Error("peak resident bytes not accounted")
	}
}

// TestStreamGatherRejectsBadGeometry: a stream disagreeing with the
// expected round or tiling fails the gather instead of folding garbage.
func TestStreamGatherRejectsBadGeometry(t *testing.T) {
	pipe := NewChunkPipe(1)
	go func() {
		u := &wire.LocalUpdate{ClientID: 0, Round: 2, NumSamples: 3, Primal: streamVec(100, 0)}
		_ = StreamUpload(pipe.Client(0), u, 32)
	}()
	_, err := StreamGather(pipe, AllClients(1), 1, 100, 32,
		func([]uint64) error { return nil },
		func(lo, hi int, payloads []*wire.Payload) error { return nil })
	if err == nil {
		t.Fatal("round mismatch accepted")
	}

	pipe2 := NewChunkPipe(1)
	go func() {
		u := &wire.LocalUpdate{ClientID: 0, Round: 1, NumSamples: 3, Primal: streamVec(100, 0)}
		_ = StreamUpload(pipe2.Client(0), u, 16) // wrong chunk size
	}()
	_, err = StreamGather(pipe2, AllClients(1), 1, 100, 32,
		func([]uint64) error { return nil },
		func(lo, hi int, payloads []*wire.Payload) error { return nil })
	if err == nil {
		t.Fatal("tiling mismatch accepted")
	}
}

// TestStreamF16Payloads: an f16-encoded update streams chunk-wise with
// the codes sliced two bytes per coordinate.
func TestStreamF16Payloads(t *testing.T) {
	const dim, chunk = 64, 16
	codes := make([]byte, 2*dim)
	for i := range codes {
		codes[i] = byte(i * 7)
	}
	pipe := NewChunkPipe(1)
	go func() {
		u := &wire.LocalUpdate{
			ClientID: 0, Round: 1, NumSamples: 3,
			PrimalP: &wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: codes},
		}
		_ = StreamUpload(pipe.Client(0), u, chunk)
	}()
	got := make([]byte, 2*dim)
	_, err := StreamGather(pipe, AllClients(1), 1, dim, chunk,
		func([]uint64) error { return nil },
		func(lo, hi int, payloads []*wire.Payload) error {
			copy(got[2*lo:2*hi], payloads[0].Codes)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("f16 code byte %d corrupted", i)
		}
	}
}

// within fails t unless f returns inside d: a deadlock fails the test
// instead of hanging it.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// TestStreamUploadIsNotAckPaced: a gatherer that takes every chunk of a
// stream before it acks anything lets the upload finish. An upload that
// waited for an ack per chunk would deadlock here on chunk 0.
func TestStreamUploadIsNotAckPaced(t *testing.T) {
	const dim, chunk = 640, 32 // 20 chunks, five times the pipe's queue
	pipe := NewChunkPipe(1)
	u := &wire.LocalUpdate{ClientID: 0, Round: 3, NumSamples: 4, Primal: streamVec(dim, 0)}
	upload := make(chan error, 1)
	go func() { upload <- StreamUpload(pipe.Client(0), u, chunk) }()
	within(t, 10*time.Second, "the upload", func() {
		count := wire.ChunkPlan(dim, chunk)
		for i := 0; i < count; i++ {
			mc, err := pipe.RecvChunkFrom(0)
			if err != nil {
				t.Error(err)
				return
			}
			if int(mc.Index) != i {
				t.Errorf("received chunk %d, want %d", mc.Index, i)
			}
			ReleaseChunk(mc)
		}
		if err := pipe.SendChunkAck(0, &wire.ChunkAck{ClientID: 0, Round: 3, Index: uint32(count - 1)}); err != nil {
			t.Error(err)
		}
		if err := <-upload; err != nil {
			t.Errorf("upload: %v", err)
		}
	})
}

// chunkOf builds chunk i of v's stream by hand, for gathers fed chunks a
// correct StreamUpload never sends.
func chunkOf(v []float64, chunk, i int, round uint32) *wire.ModelChunk {
	lo, hi := wire.ChunkRange(len(v), chunk, i)
	return &wire.ModelChunk{
		Round: round, Index: uint32(i), Count: uint32(wire.ChunkPlan(len(v), chunk)),
		Lo: uint32(lo), Hi: uint32(hi), Dim: uint32(len(v)), NumSamples: 1,
		Payload: &wire.Payload{Enc: wire.EncDense, Dim: uint32(hi - lo), Dense: v[lo:hi]},
	}
}

// TestStreamGatherRejectsOutOfOrderChunk: a chunk index that repeats or
// rewinds is a protocol error, not a retransmit to absorb, and nothing
// past the last in-order chunk is folded.
func TestStreamGatherRejectsOutOfOrderChunk(t *testing.T) {
	const dim, chunk = 128, 32
	v := streamVec(dim, 0)
	for name, order := range map[string][]int{"repeated": {0, 1, 1}, "rewound": {0, 1, 2, 0}} {
		t.Run(name, func(t *testing.T) {
			pipe := NewChunkPipe(1)
			go func() {
				for _, i := range order {
					_ = pipe.Client(0).SendChunk(chunkOf(v, chunk, i, 1))
				}
			}()
			folds := 0
			within(t, 10*time.Second, "the gather", func() {
				_, err := StreamGather(pipe, AllClients(1), 1, dim, chunk,
					func([]uint64) error { return nil },
					func(lo, hi int, payloads []*wire.Payload) error { folds++; return nil })
				if err == nil {
					t.Errorf("chunk order %v accepted", order)
				}
			})
			if want := len(order) - 1; folds != want {
				t.Errorf("folded %d chunks, want the %d in order", folds, want)
			}
		})
	}
}

// TestStreamUploadRejectsWrongFinalAck: the one ack must name the round
// and the stream's last chunk; any other ack fails the upload.
func TestStreamUploadRejectsWrongFinalAck(t *testing.T) {
	const dim, chunk = 100, 32 // 4 chunks
	for name, ack := range map[string]wire.ChunkAck{
		"round": {Round: 6, Index: 3},
		"index": {Round: 5, Index: 2},
	} {
		t.Run(name, func(t *testing.T) {
			pipe := NewChunkPipe(1)
			u := &wire.LocalUpdate{ClientID: 0, Round: 5, NumSamples: 2, Primal: streamVec(dim, 0)}
			upload := make(chan error, 1)
			go func() { upload <- StreamUpload(pipe.Client(0), u, chunk) }()
			within(t, 10*time.Second, "the upload", func() {
				for i := 0; i < wire.ChunkPlan(dim, chunk); i++ {
					mc, err := pipe.RecvChunkFrom(0)
					if err != nil {
						t.Error(err)
						return
					}
					ReleaseChunk(mc)
				}
				if err := pipe.SendChunkAck(0, &ack); err != nil {
					t.Error(err)
				}
				if err := <-upload; err == nil {
					t.Errorf("upload accepted the final ack %+v", ack)
				}
			})
		})
	}
}
