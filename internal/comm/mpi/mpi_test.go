package mpi

import (
	"math"
	"sync"
	"testing"

	"repro/internal/f16"
	"repro/internal/wire"
)

func TestSendRecvOrdering(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		c := w.Rank(0)
		c.Send(1, 7, []float64{1})
		c.Send(1, 7, []float64{2})
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
	go w.Rank(0).Send(1, 1, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tag mismatch")
		}
	}()
	w.Rank(1).Recv(0, 2)
}

func TestBcast(t *testing.T) {
	const size = 5
	w := NewWorld(size)
	var wg sync.WaitGroup
	results := make([][]float64, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			var data []float64
			if r == 2 {
				data = []float64{3.14, 2.71}
			}
			results[r] = c.Bcast(2, data)
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if len(results[r]) != 2 || results[r][0] != 3.14 {
			t.Fatalf("rank %d got %v", r, results[r])
		}
	}
}

func TestGatherCollectsAllRanks(t *testing.T) {
	const size = 6
	w := NewWorld(size)
	var wg sync.WaitGroup
	var rootResult [][]float64
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			res := c.Gather(0, []float64{float64(r) * 10})
			if r == 0 {
				rootResult = res
			} else if res != nil {
				t.Errorf("non-root rank %d got non-nil gather result", r)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if rootResult[r][0] != float64(r)*10 {
			t.Fatalf("gather[%d] = %v", r, rootResult[r])
		}
	}
}

func TestScatter(t *testing.T) {
	const size = 4
	w := NewWorld(size)
	parts := make([][]float64, size)
	for i := range parts {
		parts[i] = []float64{float64(i)}
	}
	var wg sync.WaitGroup
	got := make([]float64, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			var in [][]float64
			if r == 1 {
				in = parts
			}
			out := c.Scatter(1, in)
			got[r] = out[0]
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if got[r] != float64(r) {
			t.Fatalf("scatter rank %d got %v", r, got[r])
		}
	}
}

func TestAllreduceSums(t *testing.T) {
	const size = 5
	w := NewWorld(size)
	var wg sync.WaitGroup
	results := make([][]float64, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			results[r] = c.Allreduce([]float64{1, float64(r)})
		}(r)
	}
	wg.Wait()
	// Sum of ranks 0..4 = 10; count = 5.
	for r := 0; r < size; r++ {
		if results[r][0] != 5 || results[r][1] != 10 {
			t.Fatalf("allreduce rank %d = %v", r, results[r])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const size = 8
	w := NewWorld(size)
	var mu sync.Mutex
	phase1 := 0
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			mu.Lock()
			phase1++
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			if phase1 != size {
				t.Errorf("rank %d passed barrier before all arrived (%d/%d)", r, phase1, size)
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
}

func TestBarrierReusable(t *testing.T) {
	const size = 3
	w := NewWorld(size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Rank(r)
			for i := 0; i < 10; i++ {
				c.Barrier()
			}
		}(r)
	}
	wg.Wait() // deadlock here would fail the test by timeout
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
	if err := server.Broadcast(&wire.GlobalModel{Round: 3, Weights: []float64{42, 7}}); err != nil {
		t.Fatal(err)
	}
	ups, err := server.Gather()
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
	// Byte accounting: server sent P copies of (7 header + 2 weights) floats.
	snap := server.Stats()
	if snap.BytesSent != uint64(P*9*8) {
		t.Fatalf("server bytes sent %d, want %d", snap.BytesSent, P*9*8)
	}
	if snap.MsgsRecv != P {
		t.Fatalf("server msgs recv %d", snap.MsgsRecv)
	}
}

func TestTransportDualOmissionSavesBytes(t *testing.T) {
	// The same update with and without a dual vector should differ by
	// exactly 8·m bytes on the wire — IIADMM's saving over ICEADMM.
	m := 1000
	primal := make([]float64, m)
	dual := make([]float64, m)
	with := packUpdate(&wire.LocalUpdate{Primal: primal, Dual: dual})
	without := packUpdate(&wire.LocalUpdate{Primal: primal})
	if len(with)-len(without) != m {
		t.Fatalf("dual adds %d floats, want %d", len(with)-len(without), m)
	}
}

func TestUnpackRejectsCorruptBuffers(t *testing.T) {
	if _, err := unpackUpdate([]float64{1, 2}); err == nil {
		t.Fatal("short update accepted")
	}
	buf := packUpdate(&wire.LocalUpdate{Primal: []float64{1, 2, 3}})
	if _, err := unpackUpdate(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated update accepted")
	}
	if _, err := unpackGlobal([]float64{1}); err == nil {
		t.Fatal("short global accepted")
	}
	g := packGlobal(&wire.GlobalModel{Round: 1, Weights: []float64{1}})
	if _, err := unpackGlobal(append(g, 9)); err == nil {
		t.Fatal("oversized global accepted")
	}
}

func BenchmarkGather16Ranks(b *testing.B) {
	const size = 16
	payload := make([]float64, 10000)
	for i := 0; i < b.N; i++ {
		w := NewWorld(size)
		var wg sync.WaitGroup
		for r := 1; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				w.Rank(r).Gather(0, payload)
			}(r)
		}
		w.Rank(0).Gather(0, nil)
		wg.Wait()
	}
}

func TestPackUpdateCarriesCompressedPayload(t *testing.T) {
	u := &wire.LocalUpdate{
		ClientID: 2, Round: 5, NumSamples: 10, Epsilon: math.Inf(1), InCohort: true,
		PrimalP: &wire.Payload{Enc: wire.EncSparse, Dim: 100, Indices: []uint32{3, 97}, Values: []float64{-1.5, 2.25}},
	}
	got, err := unpackUpdate(packUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if got.PrimalP == nil || got.PrimalP.Enc != wire.EncSparse || got.PrimalP.Dim != 100 {
		t.Fatalf("payload lost through the flat buffer: %+v", got.PrimalP)
	}
	dense, err := got.PrimalP.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dense[3] != -1.5 || dense[97] != 2.25 {
		t.Fatalf("payload values corrupted: %v %v", dense[3], dense[97])
	}
	// A compressed upload must be far smaller than its dense equivalent.
	denseBuf := packUpdate(&wire.LocalUpdate{ClientID: 2, Round: 5, Primal: make([]float64, 100)})
	if sparseLen := len(packUpdate(u)); sparseLen*2 >= len(denseBuf) {
		t.Fatalf("sparse buffer %d words vs dense %d: compression lost in transport", sparseLen, len(denseBuf))
	}
}

func TestPackGlobalCarriesCompressedPayload(t *testing.T) {
	codes := make([]byte, 6)
	for i, v := range []float64{1, -2, 0.5} {
		h := f16.FromFloat64(v)
		codes[2*i] = byte(h)
		codes[2*i+1] = byte(h >> 8)
	}
	g := &wire.GlobalModel{Round: 1, Version: 3, WeightsP: &wire.Payload{Enc: wire.EncFloat16, Dim: 3, Codes: codes}}
	got, err := unpackGlobal(packGlobal(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightsP == nil {
		t.Fatal("weights payload lost through the flat buffer")
	}
	dense, err := got.WeightsP.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dense[0] != 1 || dense[1] != -2 || dense[2] != 0.5 {
		t.Fatalf("weights corrupted: %v", dense)
	}
}

func TestUnpackRejectsCorruptPayloadWords(t *testing.T) {
	u := &wire.LocalUpdate{
		ClientID: 1, Round: 1,
		PrimalP: &wire.Payload{Enc: wire.EncSparse, Dim: 10, Indices: []uint32{1}, Values: []float64{2}},
	}
	buf := packUpdate(u)
	// A payload word that is not a 48-bit integer must be rejected, not
	// silently truncated into garbage bytes.
	buf[len(buf)-1] = math.Pi
	if _, err := unpackUpdate(buf); err == nil {
		t.Fatal("corrupt payload word accepted")
	}
	// Truncating the payload bytes must surface a typed codec error.
	buf2 := packUpdate(u)
	if _, err := unpackUpdate(buf2[:len(buf2)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
