package rpc

import (
	"sync"
	"testing"

	"repro/internal/wire"
)

// echoClients runs each client as a loop echoing one update per received
// non-final model.
func echoClients(t *testing.T, clients []*Client) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for {
				gm, err := c.RecvGlobal()
				if err != nil {
					return
				}
				if gm.Final {
					return
				}
				err = c.SendUpdate(&wire.LocalUpdate{
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
		}(i, c)
	}
	return &wg
}

func TestSendToGatherFromCohortOverTCP(t *testing.T) {
	srv, clients := startCluster(t, 4)
	wg := echoClients(t, clients)
	cohort := []int{1, 2}
	if err := srv.SendTo(cohort, &wire.GlobalModel{Round: 5, Version: 9, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	ups, err := srv.GatherFrom(cohort)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range cohort {
		if int(ups[i].ClientID) != id || ups[i].BaseVersion != 9 {
			t.Fatalf("position %d: %+v, want client %d base 9", i, ups[i], id)
		}
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestGatherAnyQuorumOverTCP(t *testing.T) {
	srv, clients := startCluster(t, 3)
	wg := echoClients(t, clients)
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	batch, err := srv.GatherAny(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("quorum batch %d", len(batch))
	}
	// Re-dispatch to the two contributors only, then collect everything.
	ids := []int{int(batch[0].ClientID), int(batch[1].ClientID)}
	if err := srv.SendTo(ids, &wire.GlobalModel{Round: 2, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GatherAny(3); err != nil {
		t.Fatal(err)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
