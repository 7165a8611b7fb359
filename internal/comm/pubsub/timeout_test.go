package pubsub

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

func TestGatherUntilTimesOutOnSilentClient(t *testing.T) {
	srv, clients, err := NewFLBroker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: stays silent for round 1, echoes afterwards
		defer wg.Done()
		first := true
		for {
			gm, err := clients[0].RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			if first {
				first = false
				continue
			}
			clients[0].SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{0}})
		}
	}()
	go func() { // client 1: echoes everything
		defer wg.Done()
		for {
			gm, err := clients[1].RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			clients[1].SendUpdate(&wire.LocalUpdate{ClientID: 1, Round: gm.Round, NumSamples: 1, Primal: []float64{1}})
		}
	}()

	if err := srv.SendTo([]int{0, 1}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.GatherUntil(2, 200*time.Millisecond)
	if !errors.Is(err, comm.ErrRoundTimeout) {
		t.Fatalf("want ErrRoundTimeout, got %v (%d updates)", err, len(got))
	}
	if len(got) != 1 || got[0].ClientID != 1 {
		t.Fatalf("partial batch %+v, want just client 1", got)
	}
	if out := srv.Outstanding(); len(out) != 1 || out[0] != 0 {
		t.Fatalf("outstanding %v, want [0]", out)
	}
	srv.Forgive([]int{0})

	// Re-schedule both; round 2 completes cleanly and in cohort order.
	if err := srv.SendTo([]int{0, 1}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err = srv.GatherFrom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ClientID != 0 || got[1].ClientID != 1 {
		t.Fatalf("round-2 gather %+v", got)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
