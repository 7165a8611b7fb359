package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// silentThenEcho runs a client that swallows its first model (simulating a
// crash or a lost upload) and echoes every later one.
func silentThenEcho(wg *sync.WaitGroup, c *ClientTransport, id int) {
	defer wg.Done()
	first := true
	for {
		gm, err := c.RecvGlobal()
		if err != nil || gm.Final {
			return
		}
		if first {
			first = false
			continue
		}
		c.SendUpdate(&wire.LocalUpdate{
			ClientID: uint32(id), Round: gm.Round, NumSamples: 1, Primal: []float64{float64(id)},
		})
	}
}

// echo runs a client that echoes every model.
func echo(wg *sync.WaitGroup, c *ClientTransport, id int) {
	defer wg.Done()
	for {
		gm, err := c.RecvGlobal()
		if err != nil || gm.Final {
			return
		}
		c.SendUpdate(&wire.LocalUpdate{
			ClientID: uint32(id), Round: gm.Round, NumSamples: 1, Primal: []float64{float64(id)},
		})
	}
}

func TestGatherUntilTimesOutOnSilentClient(t *testing.T) {
	srv, clients := NewFLWorld(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go silentThenEcho(&wg, clients[0], 0)
	go echo(&wg, clients[1], 1)

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
	if out := srv.Outstanding(); len(out) != 0 {
		t.Fatalf("outstanding after forgive %v", out)
	}

	// The forgiven client can be scheduled again and its round-2 reply is
	// delivered normally.
	if err := srv.SendTo([]int{0, 1}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err = srv.GatherFrom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Round != 2 || got[1].Round != 2 {
		t.Fatalf("round-2 gather %+v", got)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestGatherUntilDiscardsForgivenLateArrival(t *testing.T) {
	srv, clients := NewFLWorld(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := clients[0]
		gm, _ := c.RecvGlobal()
		<-release // hold the round-1 reply until after forgiveness
		c.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{9}})
		for {
			gm, err := c.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			c.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{7}})
		}
	}()

	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GatherUntil(1, 50*time.Millisecond); !errors.Is(err, comm.ErrRoundTimeout) {
		t.Fatalf("want ErrRoundTimeout, got %v", err)
	}
	srv.Forgive([]int{0})
	close(release) // the stale round-1 update is now in flight

	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.GatherFrom([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	// The stale round-1 reply must have been swallowed, not delivered.
	if len(got) != 1 || got[0].Round != 2 || got[0].Primal[0] != 7 {
		t.Fatalf("gather returned %+v, want the fresh round-2 update", got[0])
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

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
