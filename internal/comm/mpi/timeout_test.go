package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// TestGatherUntilRaceLateArrivalVsDeadline drives many rounds where the
// reply lands right around the deadline — the timeout path's ledger
// bookkeeping must stay race-free (run with -race) and every round must
// end in exactly one of the two legal outcomes.
func TestGatherUntilRaceLateArrivalVsDeadline(t *testing.T) {
	srv, clients := NewFLWorld(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := clients[0]
		for i := 0; ; i++ {
			gm, err := c.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			if i%2 == 1 {
				time.Sleep(2 * time.Millisecond) // sometimes straddle the deadline
			}
			c.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{1}})
		}
	}()
	for round := 1; round <= 40; round++ {
		if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: uint32(round), Weights: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		got, err := srv.GatherUntil(1, 2*time.Millisecond)
		switch {
		case err == nil:
			if len(got) != 1 || got[0].Round != uint32(round) {
				t.Fatalf("round %d: delivered %+v", round, got)
			}
		case errors.Is(err, comm.ErrRoundTimeout):
			srv.Forgive([]int{0})
		default:
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
