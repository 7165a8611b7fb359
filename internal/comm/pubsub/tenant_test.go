package pubsub

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/wire"
)

// TestTenantBrokerDemux runs two tenants over one shared broker and
// checks topic namespacing keeps their rounds fully independent.
func TestTenantBrokerDemux(t *testing.T) {
	b, servers, clients, err := NewTenantFLBroker([]int{2, 3})
	if err != nil {
		t.Fatalf("NewTenantFLBroker: %v", err)
	}
	defer b.Close()

	for tenant, st := range servers {
		if err := st.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{float64(tenant)}}); err != nil {
			t.Fatalf("tenant %d broadcast: %v", tenant, err)
		}
	}
	for tenant, row := range clients {
		for i, c := range row {
			m, err := c.RecvGlobal()
			if err != nil {
				t.Fatalf("tenant %d client %d recv: %v", tenant, i, err)
			}
			if m.Weights[0] != float64(tenant) {
				t.Fatalf("tenant %d client %d got tenant %v's model", tenant, i, m.Weights[0])
			}
			up := &wire.LocalUpdate{ClientID: uint32(i), Round: 1, Primal: []float64{float64(tenant), float64(i)}}
			if err := c.SendUpdate(up); err != nil {
				t.Fatalf("tenant %d client %d send: %v", tenant, i, err)
			}
		}
	}
	// Gather tenant 1 first: its updates must not be visible to tenant 0.
	for _, tenant := range []int{1, 0} {
		ups, err := servers[tenant].GatherFrom(comm.AllClients(len(clients[tenant])))
		if err != nil {
			t.Fatalf("tenant %d gather: %v", tenant, err)
		}
		for i, u := range ups {
			if int(u.TenantID) != tenant || int(u.ClientID) != i {
				t.Fatalf("tenant %d slot %d got update {tenant %d client %d}", tenant, i, u.TenantID, u.ClientID)
			}
		}
	}
}

// TestTenantViewCloseIsNoop verifies a tenant transport's Close leaves the
// shared broker running for its neighbors.
func TestTenantViewCloseIsNoop(t *testing.T) {
	b, servers, clients, err := NewTenantFLBroker([]int{1, 1})
	if err != nil {
		t.Fatalf("NewTenantFLBroker: %v", err)
	}
	defer b.Close()

	if err := servers[0].Close(); err != nil {
		t.Fatalf("view close: %v", err)
	}
	if err := servers[1].Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatalf("broadcast after sibling close: %v", err)
	}
	if _, err := clients[1][0].RecvGlobal(); err != nil {
		t.Fatalf("recv after sibling close: %v", err)
	}
}

func TestTenantPrefix(t *testing.T) {
	if got := TenantPrefix(0); got != "" {
		t.Fatalf("TenantPrefix(0) = %q, want empty (legacy topics)", got)
	}
	if got := TenantGlobalTopic(2, 3); got != "t2/fl/global/3" {
		t.Fatalf("TenantGlobalTopic(2,3) = %q", got)
	}
	if got := TenantUpdateTopic(1); got != "t1/fl/update" {
		t.Fatalf("TenantUpdateTopic(1) = %q", got)
	}
}
