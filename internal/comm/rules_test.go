package comm_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/wire"
)

// A gatherRig is a server transport of three clients. Each client sends
// through its backend's own client transport, or, on a raw rig, exactly
// as the test writes the update — whatever tenant it claims to come from
// (the pubsub and rpc client transports stamp their own).
type gatherRig struct {
	server comm.ServerTransport
	send   func(client int, u *wire.LocalUpdate) error
	// sender reports that the transport knows which client sent an
	// update (a connection, a rank) and not only what the update claims.
	sender bool
	tenant uint32 // the tenant the server serves
}

const rigClients = 3

// rigs builds each transport's rig: mpi, pubsub, rpc, and a view of one
// tenant of a two-tenant rpc server. mpi's client transport sends an
// update as written, so its rig is the same raw or not.
var rigs = []struct {
	name  string
	build func(t *testing.T, raw bool) *gatherRig
}{
	{"mpi", func(t *testing.T, _ bool) *gatherRig {
		srv, clients := mpi.NewFLWorld(rigClients)
		t.Cleanup(func() { srv.Close() })
		return &gatherRig{
			server: srv,
			send:   func(c int, u *wire.LocalUpdate) error { return clients[c].SendUpdate(u) },
			sender: true,
		}
	}},
	{"pubsub", func(t *testing.T, raw bool) *gatherRig {
		// The tenant broker hands out the broker itself, which can
		// publish an update without the client transport's tenant stamp.
		b, servers, clients, err := pubsub.NewTenantFLBroker([]int{rigClients})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		for _, c := range clients[0] {
			go drain(c)
		}
		send := func(c int, u *wire.LocalUpdate) error { return clients[0][c].SendUpdate(u) }
		if raw {
			send = func(_ int, u *wire.LocalUpdate) error {
				var e wire.Encoder
				return b.Publish(pubsub.TenantUpdateTopic(0), append([]byte(nil), e.Encode(u)...))
			}
		}
		return &gatherRig{server: servers[0], send: send}
	}},
	{"rpc", func(t *testing.T, raw bool) *gatherRig {
		return rpcRig(t, rpc.ServerConfig{NumClients: rigClients}, 0, raw)
	}},
	{"rpc-tenant", func(t *testing.T, raw bool) *gatherRig {
		r := rpcRig(t, rpc.ServerConfig{Tenants: []rpc.TenantSpec{{NumClients: 2}, {NumClients: rigClients}}}, 1, raw)
		r.tenant = 1
		return r
	}},
}

// drain receives the models dispatched to c until its transport closes.
func drain(c comm.ClientTransport) {
	for _, err := c.RecvGlobal(); err == nil; _, err = c.RecvGlobal() {
	}
}

// rpcRig listens with cfg, joins every client of every tenant — through
// rpc.Client, or raw over a bare connection — and returns tenant's view
// with tenant's clients.
func rpcRig(t *testing.T, cfg rpc.ServerConfig, tenant int, raw bool) *gatherRig {
	t.Helper()
	cfg.AcceptTimeout = 10 * time.Second
	srv, err := rpc.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	accepted := make(chan error, 1)
	go func() { accepted <- srv.Accept() }()
	sizes := []int{cfg.NumClients}
	if len(cfg.Tenants) > 0 {
		sizes = sizes[:0]
		for _, ts := range cfg.Tenants {
			sizes = append(sizes, ts.NumClients)
		}
	}
	var sends []func(u *wire.LocalUpdate) error
	for ti, n := range sizes {
		for i := 0; i < n; i++ {
			var send func(u *wire.LocalUpdate) error
			if raw {
				send = joinRaw(t, srv.Addr(), ti, i)
			} else {
				c, err := rpc.DialTenant(srv.Addr(), uint32(ti), uint32(i), "rig")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				go drain(c)
				send = c.SendUpdate
			}
			if ti == tenant {
				sends = append(sends, send)
			}
		}
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return &gatherRig{
		server: srv.Tenant(tenant),
		send:   func(c int, u *wire.LocalUpdate) error { return sends[c](u) },
		sender: true,
	}
}

// joinRaw joins client id of tenant over a bare connection and returns
// what writes an update on it as one LocalUpdate frame.
func joinRaw(t *testing.T, addr string, tenant, id int) func(u *wire.LocalUpdate) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, wire.KindJoin, &wire.Join{TenantID: uint32(tenant), ClientID: uint32(id)}); err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte // the JoinAck
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[1:]))); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, conn) // the models dispatched to it
	return func(u *wire.LocalUpdate) error { return writeFrame(conn, wire.KindLocalUpdate, u) }
}

// writeFrame writes m as one rpc frame: kind, big-endian length, payload.
func writeFrame(w io.Writer, kind wire.Kind, m wire.Marshaler) error {
	var e wire.Encoder
	payload := e.Encode(m)
	frame := append([]byte{byte(kind), 0, 0, 0, 0}, payload...)
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(payload)))
	_, err := w.Write(frame)
	return err
}

// dispatch sends round's model to the listed clients.
func (r *gatherRig) dispatch(t *testing.T, clients []int, round uint32) {
	t.Helper()
	if err := r.server.SendTo(clients, &wire.GlobalModel{Round: round, Version: 7, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
}

// reply has client c answer round with an honest update whose primal is v.
func (r *gatherRig) reply(t *testing.T, c int, round uint32, v float64) {
	t.Helper()
	r.claim(t, c, &wire.LocalUpdate{ClientID: uint32(c), Round: round, BaseVersion: 7, Primal: []float64{v}})
}

// claim has client c send u, stamped with the rig's tenant unless u
// claims another.
func (r *gatherRig) claim(t *testing.T, c int, u *wire.LocalUpdate) {
	t.Helper()
	u.NumSamples = 1
	if u.TenantID == 0 {
		u.TenantID = r.tenant
	}
	if err := r.send(c, u); err != nil {
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
	// needsSender marks rows about a transport that knows who sent an
	// update; raw rows run on a raw rig.
	needsSender, raw bool
	run              func(t *testing.T, r *gatherRig)
}{
	{name: "overdraw/GatherFrom", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.reply(t, 0, 1, 0)
		_, err := r.server.GatherFrom([]int{0, 1})
		wantErr(t, err, "outstanding")
	}},
	{name: "overdraw/GatherAny", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		_, err := r.server.GatherAny(2)
		wantErr(t, err, "outstanding")
		r.reply(t, 0, 1, 0)
		if got, err := r.server.GatherAny(1); err != nil || len(got) != 1 {
			t.Fatalf("the one outstanding update: %v, %v", ids(got), err)
		}
	}},
	{name: "overdraw/GatherUntil with nothing outstanding", run: func(t *testing.T, r *gatherRig) {
		_, err := r.server.GatherUntil(1, 20*time.Millisecond)
		wantErr(t, err, "outstanding")
	}},
	{name: "GatherUntil clamps to what is outstanding", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.reply(t, 0, 1, 0)
		got, err := r.server.GatherUntil(5, 10*time.Second)
		if err != nil || len(got) != 1 || got[0].ClientID != 0 {
			t.Fatalf("clamped gather: %v, %v; want client 0's update", ids(got), err)
		}
	}},
	{name: "duplicate dispatch", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		if err := r.server.SendTo([]int{0}, &wire.GlobalModel{Round: 2, Weights: []float64{1}}); err == nil {
			t.Fatal("a second dispatch before the reply accepted")
		}
		if out := r.server.Outstanding(); len(out) != 1 || out[0] != 0 {
			t.Fatalf("outstanding %v, want [0]", out)
		}
	}},
	{name: "ID screen/out of range", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 99, Round: 1, Primal: []float64{1}})
		_, err := r.server.GatherAny(1)
		wantErr(t, err, "99")
	}},
	{name: "ID screen/another client ID", needsSender: true, run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 1, Round: 1, Primal: []float64{1}})
		_, err := r.server.GatherAny(1)
		wantErr(t, err, "client 0")
	}},
	{name: "tenant screen", raw: true, run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		r.claim(t, 0, &wire.LocalUpdate{ClientID: 0, Round: 1, TenantID: r.tenant + 1, Primal: []float64{1}})
		_, err := r.server.GatherAny(1)
		wantErr(t, err, "tenant")
	}},
	{name: "forgiven late update is discarded", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0}, 1)
		if got, err := r.server.GatherUntil(1, 30*time.Millisecond); !errors.Is(err, comm.ErrRoundTimeout) || len(got) != 0 {
			t.Fatalf("silent round: %v, %v; want nothing and ErrRoundTimeout", ids(got), err)
		}
		r.server.Forgive([]int{0})
		if out := r.server.Outstanding(); len(out) != 0 {
			t.Fatalf("outstanding after forgive %v", out)
		}
		r.reply(t, 0, 1, 9) // round 1's update, late
		r.dispatch(t, []int{0}, 2)
		r.reply(t, 0, 2, 7)
		got, err := r.server.GatherFrom([]int{0})
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
		// Let client 1's update reach the server before client 0's does.
		time.Sleep(20 * time.Millisecond)
		r.reply(t, 0, 1, 0)
		got, err := r.server.GatherAny(1)
		if err != nil || len(got) != 1 || got[0].ClientID != 0 {
			t.Fatalf("gathered %v, %v; want client 0's update", ids(got), err)
		}
		if out := r.server.Outstanding(); len(out) != 0 {
			t.Fatalf("outstanding %v, want none", out)
		}
	}},
	{name: "deadline cuts a partial batch", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, []int{0, 1}, 1)
		r.reply(t, 1, 1, 1)
		got, err := r.server.GatherUntil(2, 200*time.Millisecond)
		if !errors.Is(err, comm.ErrRoundTimeout) {
			t.Fatalf("want ErrRoundTimeout, got %v", err)
		}
		if len(got) != 1 || got[0].ClientID != 1 {
			t.Fatalf("partial batch %v, want [1]", ids(got))
		}
		if out := r.server.Outstanding(); len(out) != 1 || out[0] != 0 {
			t.Fatalf("outstanding %v, want [0]", out)
		}
		// Forgiven, the silent client is scheduled again and reports.
		r.server.Forgive([]int{0})
		r.dispatch(t, []int{0, 1}, 2)
		r.reply(t, 0, 2, 0)
		r.reply(t, 1, 2, 1)
		got, err = r.server.GatherFrom([]int{0, 1})
		if err != nil || got[0].Round != 2 || got[1].Round != 2 {
			t.Fatalf("round after the forgiveness: %v, %v", ids(got), err)
		}
	}},
	{name: "GatherFrom orders by client", run: func(t *testing.T, r *gatherRig) {
		cohort := []int{2, 0}
		r.dispatch(t, cohort, 1)
		r.reply(t, 0, 1, 0)
		r.reply(t, 2, 1, 2)
		got, err := r.server.GatherFrom(cohort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].ClientID != 2 || got[1].ClientID != 0 {
			t.Fatalf("gathered %v, want the cohort's order %v", ids(got), cohort)
		}
		for _, u := range got {
			if u.BaseVersion != 7 || u.Primal[0] != float64(u.ClientID) {
				t.Fatalf("client %d's update arrived changed: %+v", u.ClientID, u)
			}
		}
	}},
	{name: "GatherAny releases on quorum", run: func(t *testing.T, r *gatherRig) {
		r.dispatch(t, comm.AllClients(rigClients), 1)
		for c := 0; c < rigClients; c++ {
			r.reply(t, c, 1, float64(c))
		}
		first, err := r.server.GatherAny(2)
		if err != nil || len(first) != 2 {
			t.Fatalf("quorum of 2: %v, %v", ids(first), err)
		}
		rest, err := r.server.GatherAny(1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		for _, u := range append(first, rest...) {
			seen[u.ClientID] = true
		}
		if len(seen) != rigClients {
			t.Fatalf("gathered clients %v then %v, want each once", ids(first), ids(rest))
		}
		_, err = r.server.GatherAny(1)
		wantErr(t, err, "outstanding")
	}},
}

// TestGatherRules runs every receive rule on every transport: the rules
// live once, in comm.Inbox, and every backend feeds it. A row that hangs
// panics instead of waiting for the test binary's timeout.
func TestGatherRules(t *testing.T) {
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			for _, row := range gatherRules {
				t.Run(row.name, func(t *testing.T) {
					r := rig.build(t, row.raw)
					if row.needsSender && !r.sender {
						t.Skip("the transport cannot know an update's sender")
					}
					watchdog := time.AfterFunc(20*time.Second, func() { panic(t.Name() + " hangs") })
					defer watchdog.Stop()
					row.run(t, r)
				})
			}
		})
	}
}
