package rpc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// startTenantServer listens and accepts a two-tenant roster, dialing
// tenant 0 with n0 clients and tenant 1 with n1, and returns the server
// plus the per-tenant client transports.
func startTenantServer(t *testing.T, n0, n1 int) (*Server, [][]*Client) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Tenants: []TenantSpec{
			{NumClients: n0, Rounds: 3, ModelSize: 4},
			{NumClients: n1, Rounds: 5, ModelSize: 8},
		},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	clients := [][]*Client{make([]*Client, n0), make([]*Client, n1)}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var dialErr error
	for tenant, n := range []int{n0, n1} {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(tenant, i int) {
				defer wg.Done()
				c, err := DialTenant(srv.Addr(), uint32(tenant), uint32(i), "")
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					dialErr = err
					return
				}
				clients[tenant][i] = c
			}(tenant, i)
		}
	}
	acceptErr := srv.Accept()
	wg.Wait()
	if dialErr != nil {
		t.Fatalf("DialTenant: %v", dialErr)
	}
	if acceptErr != nil {
		t.Fatalf("Accept: %v", acceptErr)
	}
	for _, row := range clients {
		for _, c := range row {
			c := c
			t.Cleanup(func() { c.Close() })
		}
	}
	return srv, clients
}

// TestTenantDemux drives two tenants through interleaved rounds over one
// shared server and checks that each tenant's view gathers exactly its
// own clients' updates, with per-tenant JoinAck configs.
func TestTenantDemux(t *testing.T) {
	srv, clients := startTenantServer(t, 2, 3)

	if got := clients[0][0].Config(); got.NumClients != 2 || got.Rounds != 3 || got.ModelSize != 4 {
		t.Fatalf("tenant 0 JoinAck = %+v, want 2 clients / 3 rounds / size 4", got)
	}
	if got := clients[1][0].Config(); got.NumClients != 3 || got.Rounds != 5 || got.ModelSize != 8 {
		t.Fatalf("tenant 1 JoinAck = %+v, want 3 clients / 5 rounds / size 8", got)
	}

	// Dispatch a round on both tenants, then settle tenant 1 first while
	// tenant 0's updates are still pending — cross-tenant interleaving
	// must not leak updates across views.
	for tenant, view := range []*TenantView{srv.Tenant(0), srv.Tenant(1)} {
		m := &wire.GlobalModel{Round: 1, Weights: make([]float64, 2)}
		if err := view.Broadcast(m); err != nil {
			t.Fatalf("tenant %d broadcast: %v", tenant, err)
		}
	}
	for tenant, row := range clients {
		for i, c := range row {
			if _, err := c.RecvGlobal(); err != nil {
				t.Fatalf("tenant %d client %d recv: %v", tenant, i, err)
			}
			up := &wire.LocalUpdate{ClientID: uint32(i), Round: 1, Primal: []float64{float64(tenant), float64(i)}}
			if err := c.SendUpdate(up); err != nil {
				t.Fatalf("tenant %d client %d send: %v", tenant, i, err)
			}
		}
	}
	for _, tenant := range []int{1, 0} {
		view := srv.Tenant(tenant)
		ups, err := view.Gather()
		if err != nil {
			t.Fatalf("tenant %d gather: %v", tenant, err)
		}
		if len(ups) != len(clients[tenant]) {
			t.Fatalf("tenant %d gathered %d updates, want %d", tenant, len(ups), len(clients[tenant]))
		}
		for i, u := range ups {
			if int(u.TenantID) != tenant || int(u.ClientID) != i || u.Primal[0] != float64(tenant) {
				t.Fatalf("tenant %d slot %d got update {tenant %d client %d p0 %v}",
					tenant, i, u.TenantID, u.ClientID, u.Primal[0])
			}
		}
		if out := view.Outstanding(); len(out) != 0 {
			t.Fatalf("tenant %d still owes %v after gather", tenant, out)
		}
	}
}

// TestTenantJoinValidation rejects joins carrying an unknown tenant or an
// out-of-range tenant-local client id before any JoinAck is written — and
// the stray join costs only its own connection: the legitimate client
// still joins and Accept completes.
func TestTenantJoinValidation(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Tenants: []TenantSpec{{NumClients: 1, Rounds: 1, ModelSize: 1}},
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()

	if _, err := DialTenant(srv.Addr(), 7, 0, "stray"); err == nil {
		t.Fatal("join with unknown tenant succeeded")
	}
	if _, err := DialTenant(srv.Addr(), 0, 5, "stray"); err == nil {
		t.Fatal("join with out-of-range client id succeeded")
	}
	c, err := DialTenant(srv.Addr(), 0, 0, "legit")
	if err != nil {
		t.Fatalf("legitimate client after stray joins: %v", err)
	}
	defer c.Close()
	if err := <-acceptDone; err != nil {
		t.Fatalf("Accept after stray joins: %v", err)
	}
}

// TestAcceptTimeoutNamesTheRejectedJoin: when the roster never fills, the
// timeout error carries the last join that was turned away, so an operator
// sees why (a client dialing the wrong tenant) rather than just a deadline.
func TestAcceptTimeoutNamesTheRejectedJoin(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Tenants:       []TenantSpec{{NumClients: 1, Rounds: 1, ModelSize: 1}},
		AcceptTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	if _, err := DialTenant(srv.Addr(), 7, 0, "stray"); err == nil {
		t.Fatal("join with unknown tenant succeeded")
	}
	err = <-acceptDone
	if err == nil || !strings.Contains(err.Error(), "join rejected") || !errors.Is(err, comm.ErrUnknownTenant) {
		t.Fatalf("Accept err = %v, want a timeout naming the rejected join (ErrUnknownTenant)", err)
	}
}

// TestJoinAckCarriesThePlan: each tenant's clients are handed that tenant's
// plan — on the initial join and again on a resume — and a server without
// one sends the pre-plan ack, byte for byte.
func TestJoinAckCarriesThePlan(t *testing.T) {
	plans := []wire.Plan{
		{Algorithm: "fedavg", Rho: 2, Zeta: 14, Seed: 3, Pipeline: "clip:1,laplace:5", Train: 96, Test: 24},
		{Algorithm: "iiadmm", Rho: 3, Zeta: 9, Seed: 7, Chunk: 64, Subset: 0.5, Train: 48, Test: 12},
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Tenants: []TenantSpec{
		{NumClients: 1, Rounds: 2, ModelSize: 4, Plan: plans[0]},
		{NumClients: 1, Rounds: 2, ModelSize: 4, Plan: plans[1]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	var clients []*Client
	for tenant, want := range plans {
		c, err := DialTenant(srv.Addr(), uint32(tenant), 0, "planned")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.Config().Plan; got != want {
			t.Fatalf("tenant %d was handed plan %+v, want %+v", tenant, got, want)
		}
		clients = append(clients, c)
	}
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	if err := clients[1].Resume(); err != nil {
		t.Fatal(err)
	}
	if got := clients[1].Config().Plan; got != plans[1] {
		t.Fatalf("resume was handed plan %+v, want %+v", got, plans[1])
	}

	// No plan configured: the traffic counters see the pre-plan ack.
	bare, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 1, Rounds: 17, ModelSize: 1017610})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	go func() { acceptDone <- bare.Accept() }()
	c, err := Dial(bare.Addr(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	var e wire.Encoder
	if sent, want := bare.Stats().BytesSent, uint64(len(e.Encode(&wire.JoinAck{NumClients: 1, Rounds: 17, ModelSize: 1017610}))); sent != want || c.Config().Plan != (wire.Plan{}) {
		t.Fatalf("plan-less server sent a %d-byte ack (want %d) with plan %+v", sent, want, c.Config().Plan)
	}
}

// TestTenantViewCloseIsNoop verifies one tenant closing its view leaves
// the shared server (and the other tenant's traffic) alive.
func TestTenantViewCloseIsNoop(t *testing.T) {
	srv, clients := startTenantServer(t, 1, 1)

	if err := srv.Tenant(0).Close(); err != nil {
		t.Fatalf("view close: %v", err)
	}
	// Tenant 1 still works end to end after tenant 0's view closed.
	view := srv.Tenant(1)
	if err := view.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatalf("broadcast after sibling close: %v", err)
	}
	if _, err := clients[1][0].RecvGlobal(); err != nil {
		t.Fatalf("recv after sibling close: %v", err)
	}
	if err := clients[1][0].SendUpdate(&wire.LocalUpdate{Round: 1, Primal: []float64{2}}); err != nil {
		t.Fatalf("send after sibling close: %v", err)
	}
	if _, err := view.Gather(); err != nil {
		t.Fatalf("gather after sibling close: %v", err)
	}
}
