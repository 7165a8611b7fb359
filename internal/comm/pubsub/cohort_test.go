package pubsub

import (
	"sync"
	"testing"

	"repro/internal/wire"
)

// echoClients runs each client transport as a loop echoing one update per
// received non-final model.
func echoClients(t *testing.T, clients []*ClientTransport) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i, ct := range clients {
		wg.Add(1)
		go func(i int, ct *ClientTransport) {
			defer wg.Done()
			for {
				gm, err := ct.RecvGlobal()
				if err != nil {
					return // broker closed
				}
				if gm.Final {
					return
				}
				err = ct.SendUpdate(&wire.LocalUpdate{
					ClientID:    uint32(i),
					Round:       gm.Round,
					NumSamples:  1,
					Primal:      []float64{float64(i)},
					BaseVersion: gm.Version,
				})
				if err != nil {
					t.Errorf("client %d send: %v", i, err)
					return
				}
			}
		}(i, ct)
	}
	return &wg
}

// TestSendToReachesOnlyTheCohort: clients outside the cohort receive no
// message at all — the traffic saving server-side scheduling exists for.
func TestSendToReachesOnlyTheCohort(t *testing.T) {
	srv, clients, err := NewFLBroker(4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wg := echoClients(t, clients)
	cohort := []int{0, 2}
	if err := srv.SendTo(cohort, &wire.GlobalModel{Round: 1, Version: 3, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ups, err := srv.GatherFrom(cohort)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range cohort {
		if int(ups[i].ClientID) != id || ups[i].BaseVersion != 3 {
			t.Fatalf("position %d: %+v, want client %d base 3", i, ups[i], id)
		}
	}
	// Clients 1 and 3 saw nothing: their stats show zero received bytes.
	for _, id := range []int{1, 3} {
		if snap := clients[id].Stats(); snap.BytesRecv != 0 {
			t.Fatalf("non-cohort client %d received %d bytes", id, snap.BytesRecv)
		}
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestGatherFromRejectsOutOfCohortUpdate(t *testing.T) {
	srv, clients, err := NewFLBroker(3)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SendTo([]int{0, 1}, &wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	// Client 2 publishes although only {0, 1} are awaited: it owes
	// nothing, so its update is discarded rather than gathered.
	for _, id := range []int{2, 0, 1} {
		if err := clients[id].SendUpdate(&wire.LocalUpdate{ClientID: uint32(id), Round: 1, Primal: []float64{float64(id)}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := srv.GatherFrom([]int{0, 1})
	if err != nil || len(got) != 2 || got[0].ClientID != 0 || got[1].ClientID != 1 {
		t.Fatalf("gathered %v, %v; want the cohort's two updates", got, err)
	}
	if out := srv.Outstanding(); len(out) != 0 {
		t.Fatalf("outstanding %v", out)
	}
}

func TestGatherAnyArrivalOrder(t *testing.T) {
	srv, clients, err := NewFLBroker(3)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	// Clients reply in reverse order; arrivals keep that order.
	for _, id := range []int{2, 0, 1} {
		if _, err := clients[id].RecvGlobal(); err != nil {
			t.Fatal(err)
		}
		if err := clients[id].SendUpdate(&wire.LocalUpdate{ClientID: uint32(id), Primal: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := srv.GatherAny(2)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].ClientID != 2 || batch[1].ClientID != 0 {
		t.Fatalf("arrival order lost: %d, %d", batch[0].ClientID, batch[1].ClientID)
	}
	rest, err := srv.GatherAny(1)
	if err != nil {
		t.Fatal(err)
	}
	if rest[0].ClientID != 1 {
		t.Fatalf("last arrival %d", rest[0].ClientID)
	}
	// The ledger is empty now: a further GatherAny is an overdraw and must
	// fail fast instead of blocking on an update that will never come.
	if _, err := srv.GatherAny(1); err == nil {
		t.Fatal("overdrawn GatherAny accepted")
	}
}
