package comm

import (
	"testing"

	"repro/internal/wire"
)

func lu(id int) *wire.LocalUpdate { return &wire.LocalUpdate{ClientID: uint32(id)} }

func TestOrderByClientReordersArrivals(t *testing.T) {
	out, err := OrderByClient([]int{3, 1, 5}, []*wire.LocalUpdate{lu(5), lu(3), lu(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{3, 1, 5} {
		if int(out[i].ClientID) != want {
			t.Fatalf("position %d: client %d, want %d", i, out[i].ClientID, want)
		}
	}
}

func TestOrderByClientRejectsDuplicates(t *testing.T) {
	if _, err := OrderByClient([]int{1, 2}, []*wire.LocalUpdate{lu(1), lu(1)}); err == nil {
		t.Fatal("duplicate update accepted")
	}
}

func TestOrderByClientRejectsMissing(t *testing.T) {
	if _, err := OrderByClient([]int{1, 2}, []*wire.LocalUpdate{lu(1)}); err == nil {
		t.Fatal("missing update accepted")
	}
}

func TestOrderByClientRejectsOutOfCohort(t *testing.T) {
	if _, err := OrderByClient([]int{1}, []*wire.LocalUpdate{lu(7)}); err == nil {
		t.Fatal("out-of-cohort update accepted")
	}
}

func TestOrderSubsetToleratesMissing(t *testing.T) {
	out, err := OrderSubset([]int{3, 1, 5}, []*wire.LocalUpdate{lu(5), lu(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ClientID != 3 || out[1].ClientID != 5 {
		t.Fatalf("subset order %v", out)
	}
	if _, err := OrderSubset([]int{1, 2}, []*wire.LocalUpdate{lu(1), lu(1)}); err == nil {
		t.Fatal("duplicate update accepted")
	}
	if _, err := OrderSubset([]int{1}, []*wire.LocalUpdate{lu(7)}); err == nil {
		t.Fatal("out-of-cohort update accepted")
	}
}

func TestMissingReportsAbsenteesInCohortOrder(t *testing.T) {
	got := Missing([]int{4, 2, 9}, []*wire.LocalUpdate{lu(2)})
	if len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("missing = %v, want [4 9]", got)
	}
	if m := Missing([]int{1}, []*wire.LocalUpdate{lu(1)}); len(m) != 0 {
		t.Fatalf("nothing missing, got %v", m)
	}
}

func TestLedgerForgivenessIsRoundKeyed(t *testing.T) {
	l := NewLedger(2)
	if err := l.Open([]int{0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Open([]int{0}, 2); err == nil {
		t.Fatal("double obligation accepted")
	}
	l.Forgive([]int{0, 1}) // client 1 has nothing open: ignored
	if l.Owed() != 0 {
		t.Fatalf("owed %d after forgiveness", l.Owed())
	}
	// The forgiven round is discarded once; the same round later (after a
	// fresh obligation) is delivered.
	if l.Admit(0, 1) {
		t.Fatal("forgiven round-1 update delivered")
	}
	if err := l.Open([]int{0}, 2); err != nil {
		t.Fatal(err)
	}
	if !l.Admit(0, 2) {
		t.Fatal("fresh round-2 update discarded")
	}
	// A lost message (forgiven round 3 that never arrives) must not eat a
	// future legitimate update.
	if err := l.Open([]int{1}, 3); err != nil {
		t.Fatal(err)
	}
	l.Forgive([]int{1})
	if err := l.Open([]int{1}, 4); err != nil {
		t.Fatal(err)
	}
	if !l.Admit(1, 4) {
		t.Fatal("round-4 update eaten by round-3 forgiveness")
	}
	if out := l.Outstanding(); len(out) != 0 {
		t.Fatalf("outstanding %v", out)
	}
}

func TestAllClientsIdentity(t *testing.T) {
	ids := AllClients(3)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("AllClients(3) = %v", ids)
	}
	if len(AllClients(0)) != 0 {
		t.Fatal("AllClients(0) not empty")
	}
}
