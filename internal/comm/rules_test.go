package comm_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/testutil/rigs"
	"repro/internal/wire"
)

// A gatherRig is a transport's rig of three clients (rigs.Rig): each
// client sends through its backend's own client transport, or, on a raw
// rig, exactly as the test writes the update — whatever client or tenant
// it claims to come from (the pubsub and rpc client transports stamp
// their own tenant).
type gatherRig struct{ *rigs.Rig }

const rigClients = 3

// buildRig builds a gather rig whose clients drain what is dispatched to
// them.
func buildRig(t *testing.T, b rigs.Builder, raw bool) *gatherRig {
	r := b.Build(t, rigs.Options{Clients: rigClients, Raw: raw})
	for _, c := range r.Clients {
		go drain(c)
	}
	return &gatherRig{r}
}

// drain receives the models dispatched to c until its transport closes.
func drain(c comm.ClientTransport) {
	for _, err := c.RecvGlobal(); err == nil; _, err = c.RecvGlobal() {
	}
}

// dispatch sends round's model to the listed clients.
func (r *gatherRig) dispatch(t *testing.T, clients []int, round uint32) {
	t.Helper()
	if err := r.Server.SendTo(clients, &wire.GlobalModel{Round: round, Version: 7, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
}

// reply has client c answer round with an honest update whose primal is v.
func (r *gatherRig) reply(t *testing.T, c int, round uint32, v float64) {
	t.Helper()
	r.claim(t, c, &wire.LocalUpdate{ClientID: uint32(c), Round: round, BaseVersion: 7, InCohort: true, Primal: []float64{v}})
}

// claim has client c send u, stamped with the rig's tenant unless u
// claims another.
func (r *gatherRig) claim(t *testing.T, c int, u *wire.LocalUpdate) {
	t.Helper()
	u.NumSamples = 1
	if u.TenantID == 0 {
		u.TenantID = r.Tenant
	}
	if err := r.Send(c, u); err != nil {
		t.Fatal(err)
	}
}

// wantErr fails t unless err is a non-timeout error mentioning every one
// of subs.
func wantErr(t *testing.T, err error, subs ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("accepted")
	}
	if errors.Is(err, comm.ErrRoundTimeout) {
		t.Fatalf("got a round timeout, want a protocol error: %v", err)
	}
	for _, s := range subs {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not mention %q", err, s)
		}
	}
}

// ids returns the clients of a batch, in batch order.
func ids(batch []*wire.LocalUpdate) []int {
	out := make([]int, len(batch))
	for i, u := range batch {
		out[i] = int(u.ClientID)
	}
	return out
}

// gatherRules is the one statement of what every server transport does
// with what it receives (comm.Inbox). Each row runs on a fresh rig.
var gatherRules = []struct {
	name string
	raw  bool // the row runs on a raw rig
	run  func(t *testing.T, r *gatherRig)
}{
	{name: "overdraw/GatherFrom", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.reply(t, 0, 1, 0)
		_, err := r.Server.GatherFrom([]int{0, 1})
		wantErr(t, err, "outstanding")
	}},
	{name: "overdraw/GatherAny", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		_, err := r.Server.GatherAny(2)
		wantErr(t, err, "outstanding")
		r.reply(t, 0, 1, 0)
		if got, err := r.Server.GatherAny(1); err != nil || len(got) != 1 {
			t.Fatalf("the one outstanding update: %v, %v", ids(got), err)
		}
	}},
	{name: "overdraw/GatherUntil with nothing outstanding", run: func(t *testing.T, r *gatherRig) {
		_, err := r.Server.GatherUntil(1, 20*time.Millisecond)
		wantErr(t, err, "outstanding")
	}},
	{name: "GatherUntil clamps to what is outstanding", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.reply(t, 0, 1, 0)
		got, err := r.Server.GatherUntil(5, 10*time.Second)
		if err != nil || len(got) != 1 || got[0].ClientID != 0 {
			t.Fatalf("clamped gather: %v, %v; want client 0's update", ids(got), err)
		}
	}},
	{name: "duplicate dispatch", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		if err := r.Server.SendTo([]int{0}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err == nil {
			t.Fatal("a second dispatch before the reply accepted")
		}
		if out := r.Server.Outstanding(); len(out) != 1 || out[0] != 0 {
			t.Fatalf("outstanding %v, want [0]", out)
		}
	}},
	{name: "ID screen/out of range", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 99, Round: 1, Primal: []float64{1}})
		_, err := r.Server.GatherAny(1)
		wantErr(t, err, "99")
	}},
	{name: "ID screen/another client ID", raw: true, run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 1, Round: 1, Primal: []float64{1}})
		_, err := r.Server.GatherAny(1)
		wantErr(t, err, "client 0")
	}},
	{name: "tenant screen", raw: true, run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 0, Round: 1, TenantID: r.Tenant + 1, Primal: []float64{1}})
		_, err := r.Server.GatherAny(1)
		wantErr(t, err, "tenant")
	}},
	{name: "forgiven late update is discarded", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		if got, err := r.Server.GatherUntil(1, 30*time.Millisecond); !errors.Is(err, comm.ErrRoundTimeout) || len(got) != 0 {
			t.Fatalf("silent round: %v, %v; want nothing and ErrRoundTimeout", ids(got), err)
		}
		r.Server.Forgive([]int{0})
		if out := r.Server.Outstanding(); len(out) != 0 {
			t.Fatalf("outstanding after forgive %v", out)
		}
		r.reply(t, 0, 1, 9) // round 1's update, late
		r.dispatch(t, []int{0}, 2)
		r.reply(t, 0, 2, 7)
		got, err := r.Server.GatherFrom([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Round != 2 || got[0].Primal[0] != 7 {
			t.Fatalf("gathered round %d primal %v, want the round-2 update", got[0].Round, got[0].Primal)
		}
	}},
	{name: "unsolicited update is not admitted", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.reply(t, 1, 1, 1) // client 1 owes nothing
		if got, err := r.Server.GatherUntil(1, 100*time.Millisecond); !errors.Is(err, comm.ErrRoundTimeout) || len(got) != 0 {
			t.Fatalf("before client 0 replies: %v, %v; want nothing and ErrRoundTimeout", ids(got), err)
		}
		r.reply(t, 0, 1, 0)
		got, err := r.Server.GatherAny(1)
		if err != nil || len(got) != 1 || got[0].ClientID != 0 {
			t.Fatalf("gathered %v, %v; want client 0's update", ids(got), err)
		}
		if out := r.Server.Outstanding(); len(out) != 0 {
			t.Fatalf("outstanding %v, want none", out)
		}
	}},
	{name: "deadline cuts a partial batch", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.reply(t, 1, 1, 1)
		got, err := r.Server.GatherUntil(2, 200*time.Millisecond)
		if !errors.Is(err, comm.ErrRoundTimeout) {
			t.Fatalf("want ErrRoundTimeout, got %v", err)
		}
		if len(got) != 1 || got[0].ClientID != 1 {
			t.Fatalf("partial batch %v, want [1]", ids(got))
		}
		if out := r.Server.Outstanding(); len(out) != 1 || out[0] != 0 {
			t.Fatalf("outstanding %v, want [0]", out)
		}
		// Forgiven, the silent client is scheduled again and reports.
		r.Server.Forgive([]int{0})
		r.dispatch(t, []int{0, 1}, 2)
		r.reply(t, 0, 2, 0)
		r.reply(t, 1, 2, 1)
		got, err = r.Server.GatherFrom([]int{0, 1})
		if err != nil || got[0].Round != 2 || got[1].Round != 2 {
			t.Fatalf("round after the forgiveness: %v, %v", ids(got), err)
		}
	}},
	{name: "GatherFrom orders by client", run: func(t *testing.T, r *gatherRig) {
		cohort := []int{2, 0} // client 1 is not scheduled
		r.dispatch(t, cohort, 1)
		r.reply(t, 0, 1, 0)
		r.reply(t, 2, 1, 2)
		got, err := r.Server.GatherFrom(cohort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].ClientID != 2 || got[1].ClientID != 0 {
			t.Fatalf("gathered %v, want the cohort's order %v", ids(got), cohort)
		}
		for _, u := range got {
			if u.BaseVersion != 7 || !u.InCohort || u.Primal[0] != float64(u.ClientID) {
				t.Fatalf("client %d's update arrived changed: %+v", u.ClientID, u)
			}
		}
	}},
	{name: "GatherAny releases on quorum", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, comm.AllClients(rigClients), 1)
		for c := 0; c < rigClients; c++ {
			r.reply(t, c, 1, float64(c))
		}
		first, err := r.Server.GatherAny(2)
		if err != nil || len(first) != 2 || first[0].ClientID == first[1].ClientID {
			t.Fatalf("quorum of 2: %v, %v; want two clients' updates", ids(first), err)
		}
		// The quorum is dispatched again while the third client's round-1
		// update still waits: one gather takes all three.
		quorum := ids(first)
		r.dispatch(t, quorum, 2)
		for _, c := range quorum {
			r.reply(t, c, 2, float64(c))
		}
		rest, err := r.Server.GatherAny(3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, u := range rest {
			c, want := int(u.ClientID), uint32(1)
			if slices.Contains(quorum, c) {
				want = 2
			}
			if seen[c] || u.Round != want {
				t.Fatalf("after the second dispatch: clients %v; want the third client's round-1 update and the quorum's round-2 ones", ids(rest))
			}
			seen[c] = true
		}
		if len(seen) != rigClients {
			t.Fatalf("after the second dispatch: clients %v, want each once", ids(rest))
		}
		_, err = r.Server.GatherAny(1)
		wantErr(t, err, "outstanding")
	}},
}

// TestGatherRules runs every receive rule on every transport: the rules
// live once, in comm.Inbox, and every backend feeds it. A row that hangs
// panics instead of waiting for the test binary's timeout.
func TestGatherRules(t *testing.T) {
	for _, b := range rigs.All {
		t.Run(b.Name, func(t *testing.T) {
			for _, row := range gatherRules {
				t.Run(row.name, func(t *testing.T) {
					r := buildRig(t, b, row.raw)
					watchdog := time.AfterFunc(20*time.Second, func() { panic(t.Name() + " hangs") })
					defer watchdog.Stop()
					row.run(t, r)
				})
			}
		})
	}
}
