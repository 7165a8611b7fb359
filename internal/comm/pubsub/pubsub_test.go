package pubsub

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/wire"
)

func TestPublishFansOutToAllSubscribers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s1, _ := b.Subscribe("x", 1)
	s2, _ := b.Subscribe("x", 1)
	if err := b.Publish("x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subscription{s1, s2} {
		m, ok := s.Recv()
		if !ok || string(m.Payload) != "hello" || m.Topic != "x" {
			t.Fatalf("recv %v %v", m, ok)
		}
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sa, _ := b.Subscribe("a", 1)
	if err := b.Publish("b", []byte("nope")); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("a", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	m, ok := sa.Recv()
	if !ok || string(m.Payload) != "yes" {
		t.Fatalf("topic isolation broken: %v", m)
	}
}

func TestPerSubscriberOrdering(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("t", 10)
	for i := byte(0); i < 10; i++ {
		if err := b.Publish("t", []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 10; i++ {
		m, _ := s.Recv()
		if m.Payload[0] != i {
			t.Fatalf("out of order: got %d want %d", m.Payload[0], i)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("t", 1)
	s.Unsubscribe()
	if err := b.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Recv(); ok {
		t.Fatal("received after unsubscribe")
	}
}

func TestUnsubscribeIdempotent(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("t", 1)
	s.Unsubscribe()
	s.Unsubscribe() // must not panic
}

func TestClosedBrokerRejectsOps(t *testing.T) {
	b := NewBroker()
	b.Close()
	if _, err := b.Subscribe("t", 1); err != ErrClosed {
		t.Fatalf("subscribe on closed: %v", err)
	}
	if err := b.Publish("t", nil); err != ErrClosed {
		t.Fatalf("publish on closed: %v", err)
	}
	b.Close() // idempotent
}

func TestConcurrentPublishers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	s, _ := b.Subscribe("t", 1000)
	var wg sync.WaitGroup
	const publishers, each = 10, 100
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Publish("t", []byte{1}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < publishers*each; i++ {
		if _, ok := s.Recv(); !ok {
			t.Fatalf("lost message %d", i)
		}
	}
}

func TestFLBrokerRound(t *testing.T) {
	const P = 3
	srv, clients, err := NewFLBroker(P)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *ClientTransport) {
			defer wg.Done()
			gm, err := c.RecvGlobal()
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if err := c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, Primal: []float64{float64(i)}}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i, c)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	ups, err := srv.GatherFrom(comm.AllClients(P))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, u := range ups {
		if u == nil || u.ClientID != uint32(i) || u.Primal[0] != float64(i) {
			t.Fatalf("update %d: %+v", i, u)
		}
	}
}

func TestFLBrokerGatherOrdersOutOfOrderArrivals(t *testing.T) {
	const P = 4
	srv, clients, err := NewFLBroker(P)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	// Send updates in reverse client order; GatherFrom must reindex by ID.
	for i := P - 1; i >= 0; i-- {
		if err := clients[i].SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Primal: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := srv.GatherFrom(comm.AllClients(P))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range ups {
		if u.ClientID != uint32(i) {
			t.Fatalf("position %d holds client %d", i, u.ClientID)
		}
	}
}

func TestFLBrokerRejectsDuplicateUpdates(t *testing.T) {
	srv, clients, err := NewFLBroker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	clients[0].SendUpdate(&wire.LocalUpdate{ClientID: 0, Primal: []float64{1}})
	clients[0].SendUpdate(&wire.LocalUpdate{ClientID: 0, Primal: []float64{2}})
	if _, err := srv.GatherFrom(comm.AllClients(2)); err == nil {
		t.Fatal("duplicate update accepted")
	}
}

func TestFLBrokerStats(t *testing.T) {
	srv, clients, err := NewFLBroker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *ClientTransport) {
			defer wg.Done()
			if _, err := c.RecvGlobal(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Primal: make([]float64, 10)})
		}(i, c)
	}
	srv.Broadcast(&wire.GlobalModel{Weights: make([]float64, 10)})
	if _, err := srv.GatherFrom(comm.AllClients(2)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	snap := srv.Stats()
	if snap.MsgsSent != 2 || snap.MsgsRecv != 2 {
		t.Fatalf("stats %+v", snap)
	}
	if snap.BytesSent == 0 || snap.BytesRecv == 0 {
		t.Fatalf("byte counters empty: %+v", snap)
	}
}
