package rpc_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/testutil"
	"repro/internal/testutil/commtest"
	"repro/internal/testutil/rigs"
	"repro/internal/wire"
)

// The windowed tables run on every transport (rigs.All): the inbox that
// cuts uploads into fold windows is every transport's. They keep rpc's
// package and their names, by which CI and the docs run and cite them.

// windowWidth is the width the windowed tests cut primals into: the
// engine's.
const windowWidth = 16384

// encodedFields is a LocalUpdate message written field by field, in
// whatever order and shape a broken or hostile client chooses.
type encodedFields func(e *wire.Encoder)

func (f encodedFields) Marshal(e *wire.Encoder) { f(e) }

// frameOf encodes m into a standalone message body.
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

// gatherWindowed runs one windowed round's stream gather over all n
// clients of g with a deadline, and returns the gather's error and what
// it folded: per client, the rebuilt primal (nil for a client that sent
// none) and its sample count.
func gatherWindowed(t *testing.T, g comm.ChunkGatherer, n, dim int, round uint32) (rebuilt [][]float64, samples []uint64, folds int, err error) {
	t.Helper()
	rebuilt = make([][]float64, n)
	done := make(chan error, 1)
	go func() {
		st, err := comm.StreamGather(g, comm.AllClients(n), round, dim, windowWidth,
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

// TestWindowedUploadHostilePeers: in windowed mode a server's inbox cuts
// every dense primal into fold windows as it decodes it, on every
// transport. Client 0 is honest; client 1 sends, in turn, each malformed
// upload below. Every row but the goodbye fails the gathers loudly and
// promptly — the stream gather, or, for an upload refused only after its
// primal arrived whole, the gather of the slim updates — nothing is
// folded of a stream refused at its first window, and a message as large
// as an rpc connection may carry costs the server O(window) allocation.
// The goodbye folds as zero samples with no payload — what splitControl
// leaves of a monolithic batch — and settles its obligation through the
// gather.
func TestWindowedUploadHostilePeers(t *testing.T) {
	// Sixteen windows and a bit: a limit-sized frame is 32 windows' bytes.
	const dim = 16*windowWidth + 1000
	limit := rpc.FrameLimit(dim)
	// Every message names the rig's tenant, so that only the row's fault
	// refuses it.
	head := func(e *wire.Encoder, tenant uint32) {
		e.Uint64(1, 1)
		e.Uint64(2, 1)
		e.Uint64(3, 7)
		e.Uint64(13, uint64(tenant))
	}
	primal := func(n int) func(e *wire.Encoder) {
		v := honestPrimal(make([]float64, n), 1, 1)
		return func(e *wire.Encoder) { e.Doubles(4, v) }
	}
	tail := func(e *wire.Encoder) { e.Float64(6, 0); e.Float64(7, 0) }
	update := func(u *wire.LocalUpdate) func(tenant uint32) []byte {
		return func(tenant uint32) []byte {
			u.TenantID = tenant
			return frameOf(u)
		}
	}
	fields := func(f func(e *wire.Encoder, tenant uint32)) func(tenant uint32) []byte {
		return func(tenant uint32) []byte {
			return frameOf(encodedFields(func(e *wire.Encoder) { f(e, tenant) }))
		}
	}
	// An unknown length-delimited field that fills the frame limit.
	huge := make([]byte, limit-64)
	rows := []struct {
		name string
		body func(tenant uint32) []byte
		cut  int // when positive: send only this many bytes (rpc then closes)
		// refusedFirst: the stream is refused before its first window
		// (no fold at all); otherwise some of its windows may fold before
		// the refusal.
		refusedFirst bool
		goodbye      bool
		bounded      bool // the message is limit-sized: allocation is O(window)
	}{
		{name: "primal before head", body: fields(func(e *wire.Encoder, tn uint32) { primal(dim)(e); head(e, tn); tail(e) }), refusedFirst: true},
		{name: "primal longer than the model", body: fields(func(e *wire.Encoder, tn uint32) { head(e, tn); primal(dim + 1)(e); tail(e) }), refusedFirst: true},
		{name: "primal shorter than the model", body: fields(func(e *wire.Encoder, tn uint32) { head(e, tn); primal(dim - 1)(e); tail(e) }), refusedFirst: true},
		{name: "sample count again after the primal", body: fields(func(e *wire.Encoder, tn uint32) {
			head(e, tn)
			primal(dim)(e)
			e.Uint64(3, 1000)
		})},
		{name: "compressed primal", body: update(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			PrimalP: &wire.Payload{Enc: wire.EncDense, Dim: dim, Dense: honestPrimal(make([]float64, dim), 1, 1)}}), refusedFirst: true},
		{name: "dual beside the primal", body: update(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1), Dual: make([]float64, dim)})},
		{name: "limit-sized unknown field before the primal", body: fields(func(e *wire.Encoder, tn uint32) {
			head(e, tn)
			e.BytesField(20, huge)
		}), refusedFirst: true, bounded: true},
		{name: "limit-sized primal", body: fields(func(e *wire.Encoder, tn uint32) {
			head(e, tn)
			e.Doubles(4, make([]float64, (limit-64)/8))
		}), refusedFirst: true, bounded: true},
		{name: "connection cut mid-primal", body: update(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1)}), cut: 8 * (windowWidth + windowWidth/2)},
		{name: "goodbye carrying a primal", body: update(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 7,
			Primal: honestPrimal(make([]float64, dim), 1, 1), Control: wire.ControlGoodbye})},
		{name: "goodbye", body: update(wire.Goodbye(1, 1, 0)), goodbye: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, b := range rigs.All {
				t.Run(b.Name, func(t *testing.T) {
					r := b.Build(t, rigs.Options{Clients: 2, ModelSize: dim, Raw: true})
					r.Server.WindowUploads(windowWidth, dim)
					all := comm.AllClients(2)
					if err := r.Server.SendTo(all, &wire.GlobalModel{Round: 1, Weights: make([]float64, dim)}); err != nil {
						t.Fatal(err)
					}
					honest := frameOf(&wire.LocalUpdate{ClientID: 0, Round: 1, NumSamples: 5, TenantID: r.Tenant,
						Primal: honestPrimal(make([]float64, dim), 0, 1)})
					body := row.body(r.Tenant)
					// The meter starts before either message leaves its
					// client.
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					// The clients send side by side: a send may return only
					// once the gather has taken most of its windows, so
					// client 0's may wait until the session ends when the
					// gathers fail.
					honestSent, sent := make(chan error, 1), make(chan error, 1)
					go func() { honestSent <- r.SendFrame(0, honest, 0) }()
					go func() { sent <- r.SendFrame(1, body, row.cut) }()
					rebuilt, samples, folds, err := gatherWindowed(t, r.Server, 2, dim, 1)
					runtime.ReadMemStats(&after)
					if serr := <-sent; serr != nil {
						t.Fatalf("hostile send: %v", serr)
					}
					if row.bounded && !testutil.RaceEnabled {
						// The honest client's feeder cuts at most its queue's
						// capacity and one more window ahead of the gather;
						// the hostile message must cost nothing near its own
						// size. (The race detector allocates on its own
						// account.)
						alloc := after.TotalAlloc - before.TotalAlloc
						if bound := uint64(8 * 8 * windowWidth); alloc > bound {
							t.Errorf("a %d-byte hostile message cost %d bytes of allocation, bound %d", len(body), alloc, bound)
						}
					}
					if !row.goodbye {
						if err == nil {
							// Refused after its primal arrived whole: the slim
							// update's gather reports it.
							_, err = r.Server.GatherFrom(all)
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
					if err := <-honestSent; err != nil {
						t.Fatalf("honest send: %v", err)
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
					ups, err := r.Server.GatherFrom(all)
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
		})
	}
}

// TestWindowedRoundAllocationGate is the gate of the windowed path beside
// TestStreamedRoundAllocationGate, on every transport: four clients upload
// a 256k-parameter model whole, the server's inbox cuts each primal into
// 16384-coordinate windows as it decodes it and a StreamGather folds them,
// and the slim updates settle through GatherFrom. Once warm, a round
// allocates fewer than 0.1 objects per window and less than one model
// vector's bytes — the server holds no decoded upload.
func TestWindowedRoundAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, warm, rounds = 4, 256 << 10, 10, 40
	for _, b := range rigs.All {
		t.Run(b.Name, func(t *testing.T) {
			r := b.Build(t, rigs.Options{Clients: n, ModelSize: dim})
			srv := r.Server
			srv.WindowUploads(windowWidth, dim)
			echo := commtest.StartEcho(r.Clients, dim, r.Shutdown)
			weights := make([]float64, dim)
			all := comm.AllClients(n)
			round := uint32(0)
			// The meter runs from the dispatch's return to the gathered
			// updates' release: the server's receive side, with the clients'
			// uploads (which allocate nothing once warm) running beside it.
			var mallocs, bytes uint64
			var m0, m1 runtime.MemStats
			step := func() {
				round++
				if err := srv.SendTo(all, &wire.GlobalModel{Round: round, Weights: weights}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m0)
				_, err := comm.StreamGather(srv, all, round, dim, windowWidth,
					func([]uint64) error { return nil },
					func(lo, hi int, payloads []*wire.Payload) error {
						for i, p := range payloads {
							if want := float64(i) + float64(round)/1024; p.Dense[hi-lo-1] != want {
								return fmt.Errorf("round %d client %d: window [%d,%d) ends in %v, want %v", round, i, lo, hi, p.Dense[hi-lo-1], want)
							}
						}
						return nil
					})
				if err != nil {
					t.Fatal(errors.Join(err, echo.Err()))
				}
				ups, err := srv.GatherFrom(all)
				if err != nil {
					t.Fatal(errors.Join(err, echo.Err()))
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
				step()
			}
			mallocs, bytes = 0, 0
			for i := 0; i < rounds; i++ {
				step()
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
			if err := echo.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
