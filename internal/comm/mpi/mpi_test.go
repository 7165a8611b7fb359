package mpi

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/f16"
	"repro/internal/wire"
)

func TestSendRecvOrdering(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		c := w.Rank(0)
		c.Send(1, 7, []byte{1})
		c.Send(1, 7, []byte{2})
		close(done)
	}()
	c := w.Rank(1)
	a := c.Recv(0, 7)
	b := c.Recv(0, 7)
	if a[0] != 1 || b[0] != 2 {
		t.Fatalf("messages reordered: %v %v", a, b)
	}
	<-done
}

func TestTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	go w.Rank(0).Send(1, 1, []byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tag mismatch")
		}
	}()
	w.Rank(1).Recv(0, 2)
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0)
}

func TestRankOutOfRangePanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Rank(2)
}

func TestFLTransportRoundTrip(t *testing.T) {
	const P = 4
	server, clients := NewFLWorld(P)
	var wg sync.WaitGroup
	// Clients: receive global, send update with dual only for even IDs.
	for i, ct := range clients {
		wg.Add(1)
		go func(i int, ct *ClientTransport) {
			defer wg.Done()
			gm, err := ct.RecvGlobal()
			if err != nil {
				t.Errorf("client %d recv: %v", i, err)
				return
			}
			u := &wire.LocalUpdate{
				ClientID:   uint32(i),
				Round:      gm.Round,
				NumSamples: 100 + uint64(i),
				Primal:     []float64{float64(i), gm.Weights[0]},
				Epsilon:    math.Inf(1),
				ComputeSec: 0.5,
			}
			if i%2 == 0 {
				u.Dual = []float64{float64(-i)}
			}
			if err := ct.SendUpdate(u); err != nil {
				t.Errorf("client %d send: %v", i, err)
			}
		}(i, ct)
	}
	gm := &wire.GlobalModel{Round: 3, Weights: []float64{42, 7}}
	if err := server.Broadcast(gm); err != nil {
		t.Fatal(err)
	}
	ups, err := server.GatherFrom(comm.AllClients(P))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(ups) != P {
		t.Fatalf("gathered %d updates", len(ups))
	}
	for i, u := range ups {
		if u.ClientID != uint32(i) || u.Round != 3 {
			t.Fatalf("update %d: %+v", i, u)
		}
		if u.Primal[1] != 42 {
			t.Fatalf("client %d did not receive broadcast weights", i)
		}
		if i%2 == 0 && len(u.Dual) != 1 {
			t.Fatalf("client %d dual lost", i)
		}
		if i%2 == 1 && len(u.Dual) != 0 {
			t.Fatalf("client %d dual fabricated", i)
		}
		if !math.IsInf(u.Epsilon, 1) {
			t.Fatalf("epsilon lost: %v", u.Epsilon)
		}
	}
	// Byte accounting: the server sent P copies of the model's wire frame.
	var e wire.Encoder
	snap := server.Stats()
	if want := uint64(P * len(e.Encode(gm))); snap.BytesSent != want {
		t.Fatalf("server bytes sent %d, want %d", snap.BytesSent, want)
	}
	if snap.MsgsRecv != P {
		t.Fatalf("server msgs recv %d", snap.MsgsRecv)
	}
}

// TestUpdateCarriesCompressedPayload: a compressed primal crosses the
// world as its payload encoding, not densified, and far smaller than the
// dense update.
func TestUpdateCarriesCompressedPayload(t *testing.T) {
	server, clients := NewFLWorld(1)
	u := &wire.LocalUpdate{
		ClientID: 0, Round: 5, NumSamples: 10, Epsilon: math.Inf(1), InCohort: true,
		PrimalP: &wire.Payload{Enc: wire.EncSparse, Dim: 100, Indices: []uint32{3, 97}, Values: []float64{-1.5, 2.25}},
	}
	dense := &wire.LocalUpdate{ClientID: 0, Round: 5, Primal: make([]float64, 100)}
	var sizes []uint64
	for _, m := range []*wire.LocalUpdate{u, dense} {
		if err := server.SendTo([]int{0}, &wire.GlobalModel{Round: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := clients[0].RecvGlobal(); err != nil {
			t.Fatal(err)
		}
		before := clients[0].Stats().BytesSent
		if err := clients[0].SendUpdate(m); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, clients[0].Stats().BytesSent-before)
		ups, err := server.GatherFrom([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		if m == dense {
			continue
		}
		got := ups[0]
		if got.PrimalP == nil || got.PrimalP.Enc != wire.EncSparse || got.PrimalP.Dim != 100 {
			t.Fatalf("payload lost through the world: %+v", got.PrimalP)
		}
		vals, err := got.PrimalP.Densify(nil)
		if err != nil {
			t.Fatal(err)
		}
		if vals[3] != -1.5 || vals[97] != 2.25 {
			t.Fatalf("payload values corrupted: %v %v", vals[3], vals[97])
		}
	}
	if sizes[0]*2 >= sizes[1] {
		t.Fatalf("sparse update %d B vs dense %d B: compression lost in transport", sizes[0], sizes[1])
	}
}

// TestGlobalCarriesCompressedPayload: an f16 downlink crosses the world
// as its codes and reaches the client densified to the sent weights.
func TestGlobalCarriesCompressedPayload(t *testing.T) {
	server, clients := NewFLWorld(1)
	codes := make([]byte, 6)
	for i, v := range []float64{1, -2, 0.5} {
		h := f16.FromFloat64(v)
		codes[2*i] = byte(h)
		codes[2*i+1] = byte(h >> 8)
	}
	g := &wire.GlobalModel{Round: 1, Version: 3, Final: true, WeightsP: &wire.Payload{Enc: wire.EncFloat16, Dim: 3, Codes: codes}}
	if err := server.Broadcast(g); err != nil {
		t.Fatal(err)
	}
	got, err := clients[0].RecvGlobal()
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightsP != nil || got.Version != 3 {
		t.Fatalf("weights payload not densified through the world: %+v", got)
	}
	if dense := got.Weights; len(dense) != 3 || dense[0] != 1 || dense[1] != -2 || dense[2] != 0.5 {
		t.Fatalf("weights corrupted: %v", dense)
	}
}

// TestCorruptFrameFailsTheGather: a frame that does not decode fails the
// gather with the codec's error instead of reaching an aggregator.
func TestCorruptFrameFailsTheGather(t *testing.T) {
	server, clients := NewFLWorld(1)
	if err := server.SendTo([]int{0}, &wire.GlobalModel{Round: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].RecvGlobal(); err != nil {
		t.Fatal(err)
	}
	clients[0].c.Send(0, tagUpdate, []byte{0x22, 0xff}) // primal announcing more bytes than follow
	if _, err := server.GatherFrom([]int{0}); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("corrupt update frame: got %v, want wire.ErrTruncated", err)
	}
}
