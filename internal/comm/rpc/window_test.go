package rpc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// windowWidth is the width the windowed tests cut primals into: the
// engine's.
const windowWidth = 16384

// encodedFields is a LocalUpdate frame body written field by field, in
// whatever order and shape a broken or hostile client chooses.
type encodedFields func(e *wire.Encoder)

func (f encodedFields) Marshal(e *wire.Encoder) { f(e) }

// frameOf encodes m into a standalone frame body.
func frameOf(m wire.Marshaler) []byte {
	var e wire.Encoder
	return append([]byte(nil), e.Encode(m)...)
}

// honestPrimal is client id's primal in round r: values that name the
// client, the round and the coordinate.
func honestPrimal(dst []float64, id int, r uint32) []float64 {
	for i := range dst {
		dst[i] = float64(id) + float64(r)/1024 + float64(i)/(1<<24)
	}
	return dst
}

// gatherWindowed runs one windowed round's stream gather over all
// clients of srv with a deadline, and returns the gather's error and what
// it folded: per client, the rebuilt primal (nil for a client that sent
// none) and its sample count.
func gatherWindowed(t *testing.T, srv *Server, n, dim int, round uint32) (rebuilt [][]float64, samples []uint64, folds int, err error) {
	t.Helper()
	rebuilt = make([][]float64, n)
	done := make(chan error, 1)
	go func() {
		st, err := comm.StreamGather(srv, comm.AllClients(n), round, dim, windowWidth,
			func(s []uint64) error { samples = append([]uint64(nil), s...); return nil },
			func(lo, hi int, payloads []*wire.Payload) error {
				folds++
				for i, p := range payloads {
					if p == nil {
						continue
					}
					if rebuilt[i] == nil {
						rebuilt[i] = make([]float64, dim)
					}
					copy(rebuilt[i][lo:hi], p.Dense)
				}
				return nil
			})
		if err == nil && st.Chunks == 0 && n > 0 {
			err = errors.New("gather folded no chunk")
		}
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the windowed gather hangs")
	}
	return rebuilt, samples, folds, err
}

// TestWindowedUploadHostilePeers: in windowed mode a server cuts every
// dense primal into fold windows as it reads the socket. Client 0 is
// honest; client 1 sends, in turn, each malformed upload below. Every row
// but the goodbye fails the gathers loudly and promptly — the stream
// gather, or, for an upload refused only after its primal arrived whole,
// the gather of the slim updates — nothing is folded
// of a stream refused at its first window, and a frame as large as the
// connection may carry costs the server O(window) allocation. The goodbye
// folds as zero samples with no payload — what splitControl leaves of a
// monolithic batch — and settles its obligation through the gather.
func TestWindowedUploadHostilePeers(t *testing.T) {
	// Sixteen windows and a bit: a limit-sized frame is 32 windows' bytes.
	const dim = 16*windowWidth + 1000
	limit := frameLimit(dim)
	head := func(e *wire.Encoder) {
		e.Uint64(1, 1)
		e.Uint64(2, 1)
		e.Uint64(3, 7)
	}
	primal := func(n int) func(e *wire.Encoder) {
		v := honestPrimal(make([]float64, n), 1, 1)
		return func(e *wire.Encoder) { e.Doubles(4, v) }
	}
	tail := func(e *wire.Encoder) { e.Float64(6, 0); e.Float64(7, 0) }
	// An unknown length-delimited field that fills the frame limit.
	huge := make([]byte, limit-64)
	rows := []struct {
		name string
		body []byte
		cut  int // when positive: send only this many bytes, then close
		// refusedFirst: the stream is refused before its first window
		// (no fold at all); otherwise some of its windows may fold before
		// the refusal.
		refusedFirst bool
		goodbye      bool
		bounded      bool // the frame is limit-sized: allocation is O(window)
	}{
		{name: "primal before head", body: frameOf(encodedFields(func(e *wire.Encoder) { primal(dim)(e); head(e); tail(e) })), refusedFirst: true},
		{name: "primal longer than the model", body: frameOf(encodedFields(func(e *wire.Encoder) { head(e); primal(dim + 1)(e); tail(e) })), refusedFirst: true},
		{name: "primal shorter than the model", body: frameOf(encodedFields(func(e *wire.Encoder) { head(e); primal(dim - 1)(e); tail(e) })), refusedFirst: true},
		{name: "sample count again after the primal", body: frameOf(encodedFields(func(e *wire.Encoder) {
			head(e)
			primal(dim)(e)
			e.Uint64(3, 1000)
		}))},
		{name: "compressed primal", body: frameOf(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			PrimalP: &wire.Payload{Enc: wire.EncDense, Dim: dim, Dense: honestPrimal(make([]float64, dim), 1, 1)}}), refusedFirst: true},
		{name: "dual beside the primal", body: frameOf(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1), Dual: make([]float64, dim)}), refusedFirst: false},
		{name: "limit-sized unknown field before the primal", body: frameOf(encodedFields(func(e *wire.Encoder) {
			head(e)
			e.BytesField(20, huge)
		})), refusedFirst: true, bounded: true},
		{name: "limit-sized primal", body: frameOf(encodedFields(func(e *wire.Encoder) {
			head(e)
			e.Doubles(4, make([]float64, (limit-64)/8))
		})), refusedFirst: true, bounded: true},
		{name: "connection cut mid-primal", body: frameOf(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1)}), cut: 8 * (windowWidth + windowWidth/2)},
		{name: "goodbye carrying a primal", body: frameOf(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1), Control: wire.ControlGoodbye})},
		{name: "goodbye", body: frameOf(wire.Goodbye(1, 1, 0)), goodbye: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, clients := dialCluster(t, 2, dim)
			if !srv.WindowUploads(windowWidth) {
				t.Fatal("a single-tenant server with a model size refused windowed mode")
			}
			all := comm.AllClients(2)
			if err := srv.SendTo(all, &wire.GlobalModel{Round: 1, Weights: make([]float64, dim)}); err != nil {
				t.Fatal(err)
			}
			for _, c := range clients {
				if _, err := c.RecvGlobal(); err != nil {
					t.Fatal(err)
				}
			}
			honest := &wire.LocalUpdate{ClientID: 0, Round: 1, NumSamples: 5, Primal: honestPrimal(make([]float64, dim), 0, 1)}
			// The meter starts before either upload leaves its client.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := clients[0].SendUpdate(honest); err != nil {
				t.Fatal(err)
			}
			sent := make(chan error, 1)
			go func() {
				conn := clients[1].current()
				if row.cut > 0 {
					var f frameWriter
					err := f.write(conn, wire.KindLocalUpdate, len(row.body), row.body[:row.cut])
					conn.Close()
					sent <- err
					return
				}
				sent <- writeFrame(conn, wire.KindLocalUpdate, len(row.body), row.body)
			}()
			rebuilt, samples, folds, err := gatherWindowed(t, srv, 2, dim, 1)
			runtime.ReadMemStats(&after)
			if serr := <-sent; serr != nil {
				t.Fatalf("hostile write: %v", serr)
			}
			if row.bounded && !testutil.RaceEnabled {
				// The honest client's reader cuts at most its channel's
				// capacity and one more window ahead of the gather; the
				// hostile frame must cost nothing near its own size. (The
				// race detector allocates on its own account.)
				alloc := after.TotalAlloc - before.TotalAlloc
				if bound := uint64(8 * 8 * windowWidth); alloc > bound {
					t.Errorf("a %d-byte hostile frame cost %d bytes of allocation, bound %d", len(row.body), alloc, bound)
				}
			}
			if !row.goodbye {
				if err == nil {
					// Refused after its primal arrived whole: the slim
					// update's gather reports it.
					_, err = srv.GatherFrom(all)
				}
				if err == nil {
					t.Fatalf("gathers accepted the upload: samples %v", samples)
				}
				t.Logf("refused: %v", err)
				if row.refusedFirst && folds != 0 {
					t.Errorf("folded %d windows of a stream refused at its first", folds)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != 2 || samples[0] != 5 || samples[1] != 0 {
				t.Fatalf("samples %v, want [5 0]: a goodbye counts no samples", samples)
			}
			if rebuilt[1] != nil {
				t.Fatal("a goodbye's stream handed the fold a payload")
			}
			want := honestPrimal(make([]float64, dim), 0, 1)
			for i := range want {
				if rebuilt[0][i] != want[i] {
					t.Fatalf("client 0 coordinate %d folded %v, sent %v", i, rebuilt[0][i], want[i])
				}
			}
			ups, err := srv.GatherFrom(all)
			if err != nil {
				t.Fatal(err)
			}
			if ups[0].Control != wire.ControlNone || len(ups[0].Primal) != 0 || ups[0].NumSamples != 5 {
				t.Errorf("client 0's gathered update: control %d, %d primal values, %d samples; want a slim data update",
					ups[0].Control, len(ups[0].Primal), ups[0].NumSamples)
			}
			if ups[1].Control != wire.ControlGoodbye {
				t.Errorf("client 1's gathered update has control %d, want a goodbye", ups[1].Control)
			}
			comm.ReleaseUpdates(ups)
		})
	}
}

// TestWindowedRoundAllocationGate is the gate of the windowed path beside
// TestStreamedRoundAllocationGate: four clients upload a 256k-parameter
// model whole over loopback TCP, the server cuts each primal into
// 16384-coordinate windows as it reads it and a StreamGather folds them,
// and the slim updates settle through GatherFrom. Once warm, a round
// allocates fewer than 0.1 objects per window and less than one model
// vector's bytes — the server holds no decoded upload.
func TestWindowedRoundAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, warm, rounds = 4, 256 << 10, 10, 40
	srv, clients := dialCluster(t, n, dim)
	if !srv.WindowUploads(windowWidth) {
		t.Fatal("windowed mode refused")
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			u := &wire.LocalUpdate{ClientID: uint32(i), NumSamples: uint64(i + 1), Primal: make([]float64, dim)}
			for {
				gm, err := c.RecvGlobal()
				if err != nil || gm.Final {
					return
				}
				u.Round = gm.Round
				for k := range u.Primal {
					u.Primal[k] = float64(i) + float64(gm.Round)/1024
				}
				if c.SendUpdate(u) != nil {
					return
				}
			}
		}(i, c)
	}
	weights := make([]float64, dim)
	all := comm.AllClients(n)
	r := uint32(0)
	// The meter runs from the dispatch's return to the gathered updates'
	// release: the server's receive side, with the clients' uploads (which
	// allocate nothing once warm) running beside it.
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	round := func() {
		r++
		if err := srv.SendTo(all, &wire.GlobalModel{Round: r, Weights: weights}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		_, err := comm.StreamGather(srv, all, r, dim, windowWidth,
			func([]uint64) error { return nil },
			func(lo, hi int, payloads []*wire.Payload) error {
				for i, p := range payloads {
					if want := float64(i) + float64(r)/1024; p.Dense[hi-lo-1] != want {
						return fmt.Errorf("round %d client %d: window [%d,%d) ends in %v, want %v", r, i, lo, hi, p.Dense[hi-lo-1], want)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		ups, err := srv.GatherFrom(all)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if len(u.Primal) != 0 {
				t.Fatalf("a windowed update reached the gather with %d primal values", len(u.Primal))
			}
		}
		comm.ReleaseUpdates(ups)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	for i := 0; i < warm; i++ {
		round()
	}
	mallocs, bytes = 0, 0
	for i := 0; i < rounds; i++ {
		round()
	}
	perRound, perRoundBytes := float64(mallocs)/rounds, float64(bytes)/rounds
	perWindow := perRound / float64(n*wire.ChunkPlan(dim, windowWidth))
	t.Logf("per round: %.1f allocations (%.3f per window), %.0f bytes; a model vector is %d bytes", perRound, perWindow, perRoundBytes, 8*dim)
	if perWindow >= 0.1 {
		t.Errorf("a windowed round allocates %.3f objects per window, gate is 0.1", perWindow)
	}
	if perRoundBytes >= 8*dim {
		t.Errorf("a windowed round allocates %.0f bytes, at least one %d-byte model vector", perRoundBytes, 8*dim)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
