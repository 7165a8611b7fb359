package mpi

import (
	"sync"
	"testing"

	"repro/internal/wire"
)

// echoClients runs each listed client transport as a loop echoing one
// update per received non-final model.
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
					t.Errorf("client %d recv: %v", i, err)
					return
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
					InCohort:    true,
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

func TestSendToGatherFromCohortSubset(t *testing.T) {
	server, clients := NewFLWorld(5)
	wg := echoClients(t, clients)
	cohort := []int{1, 3, 4}
	if err := server.SendTo(cohort, &wire.GlobalModel{Round: 2, Version: 7, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ups, err := server.GatherFrom(cohort)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 3 {
		t.Fatalf("gathered %d updates", len(ups))
	}
	for i, id := range cohort {
		if int(ups[i].ClientID) != id {
			t.Fatalf("position %d: client %d, want %d", i, ups[i].ClientID, id)
		}
		if ups[i].BaseVersion != 7 {
			t.Fatalf("client %d lost the base version: %d", id, ups[i].BaseVersion)
		}
		if !ups[i].InCohort {
			t.Fatalf("client %d lost the cohort flag", id)
		}
	}
	if err := server.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestGatherAnyReleasesOnQuorum(t *testing.T) {
	server, clients := NewFLWorld(4)
	wg := echoClients(t, clients)
	if err := server.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	first, err := server.GatherAny(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("quorum batch size %d", len(first))
	}
	rest, err := server.GatherAny(2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, u := range append(first, rest...) {
		if seen[u.ClientID] {
			t.Fatalf("client %d delivered twice", u.ClientID)
		}
		seen[u.ClientID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("collected %d distinct clients", len(seen))
	}
	if err := server.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
