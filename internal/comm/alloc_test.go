package comm_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/testutil"
	"repro/internal/testutil/commtest"
	"repro/internal/wire"
)

// TestSteadyStateAllocationGate is rpc's gate of the same name on the
// in-process transports: four clients exchange a 256k-parameter model with
// the server, and once two warm-up rounds have sized every decode target,
// a round allocates at most a twentieth of the bytes it puts on the wire.
// Each upload is encoded into a pooled frame that the server's feeder
// returns once it has decoded it, and each dispatch into a pooled frame
// that every scheduled client's queue shares and the last client to
// decode it returns (comm.SharedFrame). Measured: 0.0001× (1 KB a
// round), or 0.0157× when a GC empties the pool and one 2 MB frame is
// made again over the 8 rounds (about 1 run in 12 with the package's
// other tests alongside); with a fresh downlink frame per dispatch,
// 0.1255×.
func TestSteadyStateAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, warm, rounds = 4, 256 << 10, 2, 8
	rigs := map[string]func(t *testing.T) (comm.ServerTransport, []comm.ClientTransport){
		"mpi": func(t *testing.T) (comm.ServerTransport, []comm.ClientTransport) {
			srv, cs := mpi.NewFLWorld(n)
			t.Cleanup(func() { srv.Close() })
			out := make([]comm.ClientTransport, n)
			for i, c := range cs {
				out[i] = c
			}
			return srv, out
		},
		"pubsub": func(t *testing.T) (comm.ServerTransport, []comm.ClientTransport) {
			srv, cs, err := pubsub.NewFLBroker(n)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			out := make([]comm.ClientTransport, n)
			for i, c := range cs {
				out[i] = c
			}
			return srv, out
		},
	}
	for name, build := range rigs {
		t.Run(name, func(t *testing.T) {
			srv, clients := build(t)
			echo := commtest.StartEcho(clients, dim, func() { srv.Close() })
			weights := make([]float64, dim)
			all := comm.AllClients(n)
			round := func(r int) {
				for i := range weights {
					weights[i] = float64(r)
				}
				if err := srv.SendTo(all, &wire.GlobalModel{Round: uint32(r), Weights: weights}); err != nil {
					t.Fatal(err)
				}
				ups, err := srv.GatherFrom(all)
				if err != nil {
					t.Fatal(errors.Join(err, echo.Err()))
				}
				for i, u := range ups {
					if want := float64(i) + float64(r)/1024 + float64(r); len(u.Primal) != dim || u.Primal[dim-1] != want {
						t.Fatalf("round %d client %d: primal tail %v of %d values, want %v", r, i, u.Primal[len(u.Primal)-1], len(u.Primal), want)
					}
				}
				comm.ReleaseUpdates(ups)
			}
			for r := 1; r <= warm; r++ {
				round(r)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			wire0 := srv.Stats()
			for r := warm + 1; r <= warm+rounds; r++ {
				round(r)
			}
			runtime.ReadMemStats(&m1)
			wire1 := srv.Stats()
			onWire := float64(wire1.BytesSent-wire0.BytesSent+wire1.BytesRecv-wire0.BytesRecv) / rounds
			alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
			t.Logf("per round: %.2f MB on the wire, %.3f MB allocated (%.4f×)", onWire/1e6, alloc/1e6, alloc/onWire)
			if onWire < 2*n*8*dim {
				t.Fatalf("round moved %.0f bytes, expected at least %d", onWire, 2*n*8*dim)
			}
			if alloc > 0.05*onWire {
				t.Errorf("steady-state round allocates %.0f bytes for %.0f on the wire (%.4f×), gate is 0.05×", alloc, onWire, alloc/onWire)
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
