package pubsub

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/testutil/chunktest"
	"repro/internal/wire"
)

// TestStreamOverPubSub: a chunked upload over per-client topics
// reassembles every client's vector bit for bit.
func TestStreamOverPubSub(t *testing.T) {
	const P, dim, chunk = 3, 400, 64
	srv, clients, err := NewFLBroker(P)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i, ct := range clients {
		wg.Add(1)
		go func(i int, ct *ClientTransport) {
			defer wg.Done()
			v := make([]float64, dim)
			for k := range v {
				v[k] = float64(i+1)*10 + float64(k)*0.125
			}
			u := &wire.LocalUpdate{
				ClientID:   uint32(i),
				Round:      1,
				NumSamples: uint64(3 + i),
				Primal:     v,
			}
			if err := comm.StreamUpload(ct, u, chunk); err != nil {
				t.Errorf("client %d stream: %v", i, err)
			}
		}(i, ct)
	}
	rebuilt := make([][]float64, P)
	for i := range rebuilt {
		rebuilt[i] = make([]float64, dim)
	}
	st, err := comm.StreamGather(srv, comm.AllClients(P), 1, dim, chunk,
		func(samples []uint64) error {
			for i, n := range samples {
				if n != uint64(3+i) {
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
	if err := comm.AckStream(srv, comm.AllClients(P), 1, dim, chunk); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range rebuilt {
		for k := range rebuilt[i] {
			want := float64(i+1)*10 + float64(k)*0.125
			if math.Float64bits(rebuilt[i][k]) != math.Float64bits(want) {
				t.Fatalf("client %d coordinate %d corrupted in transit", i, k)
			}
		}
	}
	if st.Chunks != P*wire.ChunkPlan(dim, chunk) {
		t.Fatalf("folded %d chunks", st.Chunks)
	}
}

// TestStreamAckTimeoutOverPubSub: a silent ack topic surfaces
// comm.ErrAckTimeout instead of hanging.
func TestStreamAckTimeoutOverPubSub(t *testing.T) {
	srv, clients, err := NewFLBroker(1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := clients[0].RecvChunkAck(10 * time.Millisecond); err != comm.ErrAckTimeout {
		t.Fatalf("got %v, want ErrAckTimeout", err)
	}
}

// TestStreamPushAheadOverPubSub: a client streaming while the gather waits
// on a silent cohort member fills the inbox's chunk queue (4) and the one
// chunk the topic's pump holds, and then blocks in Publish (the topic
// queues none); the round completes bit for bit once the silent member
// streams.
func TestStreamPushAheadOverPubSub(t *testing.T) {
	srv, clients, err := NewFLBroker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	chunktest.PushAhead(t, srv, [2]comm.ChunkSender{clients[0], clients[1]}, 1, 20*64, 64, 4+1)
}
