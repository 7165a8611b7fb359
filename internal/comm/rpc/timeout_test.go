package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// TestGoodbyeThenResumeSplicesSession exercises the full rejoin handshake
// at the transport level: the client answers a round with a goodbye,
// drops its TCP connection, redials with a Resume join, and later rounds
// flow over the new connection within the same session.
func TestGoodbyeThenResumeSplicesSession(t *testing.T) {
	srv, clients := startCluster(t, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := clients[0]
		// Round 1: answer with a goodbye leasing round 3, then reconnect.
		gm, err := c.RecvGlobal()
		if err != nil || gm.Final {
			return
		}
		if err := c.SendUpdate(wire.Goodbye(0, gm.Round, 3)); err != nil {
			t.Errorf("goodbye: %v", err)
			return
		}
		if err := c.Resume(); err != nil {
			t.Errorf("resume: %v", err)
			return
		}
		// Rounds after the lease arrive on the resumed connection.
		for {
			gm, err := c.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			c.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: gm.Round, NumSamples: 1, Primal: []float64{4}})
		}
	}()

	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.GatherFrom([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Control != wire.ControlGoodbye || got[0].RejoinRound != 3 {
		t.Fatalf("expected goodbye leasing round 3, got %+v", got[0])
	}

	// Wait until the resume has spliced (the client's connection
	// generation advances), then address the client again — this write
	// must land on the new connection.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		gen := srv.gens[0]
		srv.mu.Unlock()
		if gen > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resume never spliced a new connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 3, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err = srv.GatherUntil(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Round != 3 || got[0].Primal[0] != 4 {
		t.Fatalf("post-resume gather %+v", got)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestConnDropWithOpenObligationSurfaces: losing a client mid-obligation
// without a goodbye is a genuine failure a BLOCKING gather must report
// loudly — with no deadline there is no other way to stop waiting.
func TestConnDropWithOpenObligationSurfaces(t *testing.T) {
	srv, clients := startCluster(t, 1)
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	clients[0].Close()
	if _, err := srv.GatherAny(1); err == nil {
		t.Fatal("blocking gather swallowed a dead connection")
	}
}

// TestConnDropUnderDeadlineFeedsQuorumPath: the same death under a
// deadline gather is absorbed — the gather times out (the quorum
// machinery's signal) and the client is reported unreachable so the
// scheduler stops dispatching to it. A process death costs a timed-out
// round, not the run.
func TestConnDropUnderDeadlineFeedsQuorumPath(t *testing.T) {
	srv, clients := startCluster(t, 1)
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	clients[0].Close()
	got, err := srv.GatherUntil(1, 300*time.Millisecond)
	if !errors.Is(err, comm.ErrRoundTimeout) {
		t.Fatalf("want ErrRoundTimeout, got %v (%d updates)", err, len(got))
	}
	if len(got) != 0 {
		t.Fatalf("dead client delivered %d updates", len(got))
	}
	if down := srv.Unreachable(); len(down) != 1 || down[0] != 0 {
		t.Fatalf("unreachable = %v, want [0]", down)
	}
	srv.Forgive([]int{0})
	if out := srv.Outstanding(); len(out) != 0 {
		t.Fatalf("outstanding after forgive %v", out)
	}
}
