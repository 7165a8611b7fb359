package mpi

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/testutil/chunktest"
	"repro/internal/wire"
)

// TestStreamOverMPI: a chunked upload over the MPI world reassembles
// every client's vector bit for bit through its wire frames.
// The stream follows the real protocol: the server dispatches a model
// (opening the obligation whose reply receiver routes the chunks), the
// cohort streams, and a slim update settles each obligation.
func TestStreamOverMPI(t *testing.T) {
	const P, dim, chunk = 3, 500, 64
	server, clients := NewFLWorld(P)
	var wg sync.WaitGroup
	for i, ct := range clients {
		wg.Add(1)
		go func(i int, ct *ClientTransport) {
			defer wg.Done()
			if _, err := ct.RecvGlobal(); err != nil {
				t.Errorf("client %d recv global: %v", i, err)
				return
			}
			v := make([]float64, dim)
			for k := range v {
				v[k] = float64(i+1)*1000 + float64(k)*0.25
			}
			u := &wire.LocalUpdate{
				ClientID:   uint32(i),
				Round:      2,
				NumSamples: uint64(5 + i),
				Primal:     v,
			}
			if err := comm.StreamUpload(ct, u, chunk); err != nil {
				t.Errorf("client %d stream: %v", i, err)
				return
			}
			slim := &wire.LocalUpdate{ClientID: uint32(i), Round: 2, NumSamples: uint64(5 + i)}
			if err := ct.SendUpdate(slim); err != nil {
				t.Errorf("client %d slim update: %v", i, err)
			}
		}(i, ct)
	}
	if err := server.SendTo(comm.AllClients(P), &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	rebuilt := make([][]float64, P)
	for i := range rebuilt {
		rebuilt[i] = make([]float64, dim)
	}
	st, err := comm.StreamGather(server, comm.AllClients(P), 2, dim, chunk,
		func(samples []uint64) error {
			for i, n := range samples {
				if n != uint64(5+i) {
					t.Errorf("client %d samples %d", i, n)
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
	if _, err := server.GatherFrom(comm.AllClients(P)); err != nil { // slim updates settle the obligations
		t.Fatal(err)
	}
	wg.Wait()
	for i := range rebuilt {
		for k := range rebuilt[i] {
			want := float64(i+1)*1000 + float64(k)*0.25
			if math.Float64bits(rebuilt[i][k]) != math.Float64bits(want) {
				t.Fatalf("client %d coordinate %d corrupted in transit", i, k)
			}
		}
	}
	if st.Chunks != P*wire.ChunkPlan(dim, chunk) {
		t.Fatalf("folded %d chunks", st.Chunks)
	}
}

// TestStreamAckTimeoutOverMPI: an ack that never comes surfaces
// comm.ErrAckTimeout through Comm.RecvTimeout instead of hanging.
func TestStreamAckTimeoutOverMPI(t *testing.T) {
	_, clients := NewFLWorld(1)
	if _, err := clients[0].RecvChunkAck(10 * time.Millisecond); err != comm.ErrAckTimeout {
		t.Fatalf("got %v, want ErrAckTimeout", err)
	}
}

// TestStreamPushAheadOverMPI: a client streaming while the gather waits on
// a silent cohort member gets at most its mailbox (8), the chunk queue (4)
// and the one chunk the reply receiver holds ahead; the round completes
// bit for bit once the silent member streams.
func TestStreamPushAheadOverMPI(t *testing.T) {
	server, clients := NewFLWorld(2)
	if err := server.SendTo(comm.AllClients(2), &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	for _, ct := range clients {
		if _, err := ct.RecvGlobal(); err != nil {
			t.Fatal(err)
		}
	}
	chunktest.PushAhead(t, server, [2]comm.ChunkSender{clients[0], clients[1]}, 1, 30*64, 64, 8+4+1)
}
