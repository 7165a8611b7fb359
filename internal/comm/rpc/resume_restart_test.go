package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestResumeRacingServerRestart pins the resume-vs-restart contract: a
// Resume dialed into the window where the server is down must fail with
// the typed ErrResumeRetryable (never a splice into nothing, never an
// untyped error the caller cannot distinguish from session death), and a
// retry once the server is listening again must land a working session.
func TestResumeRacingServerRestart(t *testing.T) {
	const clients = 2
	cfg := ServerConfig{NumClients: clients, Rounds: 4, ModelSize: 1}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- srv.Accept() }()
	cs := make([]*Client, clients)
	for i := range cs {
		c, err := Dial(addr, uint32(i), "restart-test")
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	// The server dies (kill -9: connections and listener vanish at once).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A resume dialed into the downtime window is retryable, not fatal.
	if err := cs[0].Resume(); !errors.Is(err, ErrResumeRetryable) {
		t.Fatalf("resume against dead server: err = %v, want ErrResumeRetryable", err)
	}

	// The server restarts on the same address. The port was just freed;
	// ride out the window where the OS still holds it.
	var srv2 *Server
	for i := 0; i < 100; i++ {
		if srv2, err = Listen(addr, cfg); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	go func() { acceptErr <- srv2.Accept() }()

	// Every client retries its resume until the splice lands.
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				err := c.Resume()
				if err == nil {
					return
				}
				if !errors.Is(err, ErrResumeRetryable) {
					t.Errorf("client %d resume attempt %d: untyped error %v", i, attempt, err)
					return
				}
				if attempt > 200 {
					t.Errorf("client %d: resume never spliced: %v", i, err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i, c)
	}
	wg.Wait()
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	// The respliced session must carry a full round trip.
	for i, c := range cs {
		go func(i int, c *Client) {
			gm, err := c.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, NumSamples: 1, Primal: []float64{float64(i)}})
		}(i, c)
	}
	if err := srv2.SendTo([]int{0, 1}, &wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	got, err := srv2.GatherFrom([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != clients {
		t.Fatalf("gathered %d updates, want %d", len(got), clients)
	}
	for _, c := range cs {
		c.Close()
	}
}

// TestResumeKeepsADispatchAlreadyOnItsWay: the server sends a model on the
// connection it knows while the client is already redialing. The model
// must not die with the old connection — the resumed client receives it,
// answers on the new connection, and the round's obligation settles.
// (Losing it costs the round a full timeout on a client that was there all
// along; under CPU starvation that is what made the rejoin scenarios of
// core's TestScenarioDeterminism flake.)
func TestResumeKeepsADispatchAlreadyOnItsWay(t *testing.T) {
	srv, clients := startCluster(t, 1)
	c := clients[0]
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 4, Version: 3, Weights: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	got := make(chan *wire.GlobalModel, 1)
	go func() {
		if gm, err := c.RecvGlobal(); err == nil {
			got <- gm
		}
	}()
	select {
	case gm := <-got:
		if gm.Round != 4 || gm.Version != 3 || len(gm.Weights) != 3 || gm.Weights[2] != 3 {
			t.Fatalf("salvaged model %+v", gm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dispatch written before the resume was lost with the old connection")
	}
	if err := c.SendUpdate(&wire.LocalUpdate{ClientID: 0, Round: 4, NumSamples: 1, Primal: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if ups, err := srv.GatherUntil(1, 5*time.Second); err != nil || len(ups) != 1 {
		t.Fatalf("gather after resume: %d updates, err %v", len(ups), err)
	}
	// Nothing on its way: Resume costs its short look and nothing else.
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := srv.SendTo([]int{0}, &wire.GlobalModel{Round: 5, Version: 4, Weights: []float64{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if gm, err := c.RecvGlobal(); err != nil || gm.Round != 5 {
		t.Fatalf("round after an empty-handed resume: %+v, err %v", gm, err)
	}
}
