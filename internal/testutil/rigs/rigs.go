// Package rigs builds each server transport with its clients — mpi,
// pubsub, rpc, and one tenant's view of a two-tenant rpc server — for the
// tests that run one table on every transport. Only test files import it.
package rigs

import (
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/comm"
	"repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/wire"
)

// Server is what every transport's server offers: the gathers, and the
// chunk side with windowed mode that its comm.Inbox serves.
type Server interface {
	comm.ServerTransport
	comm.UploadWindower
}

// Options shape a rig.
type Options struct {
	Clients   int
	ModelSize int // what an rpc server negotiates; 0 negotiates none
	// Raw clients send only what the test writes, as it writes it, and
	// drain what is dispatched to them themselves.
	Raw bool
}

// A Rig is one transport's server and its clients.
type Rig struct {
	Server Server
	// Clients are the clients' own transports, which nothing drains: the
	// test drives them. A raw rig has none.
	Clients []comm.ClientTransport
	Tenant  uint32 // the tenant the server serves
	// Shutdown ends the session: it closes the server — and the host a
	// tenant's view shares, whose own Close does nothing — so that every
	// gather fails.
	Shutdown func()
	raw      []func(body []byte, cut int) error
}

// Send has client c send u: through its transport, which stamps its own
// tenant (pubsub, rpc), or on a raw rig exactly as written.
func (r *Rig) Send(c int, u *wire.LocalUpdate) error {
	if r.raw == nil {
		return r.Clients[c].SendUpdate(u)
	}
	var e wire.Encoder
	return r.SendFrame(c, append([]byte(nil), e.Encode(u)...), 0)
}

// SendFrame has client c of a raw rig send body as one LocalUpdate
// message, exactly as it is — or, when cut is positive, only its first
// cut bytes, after which rpc's connection closes (an in-process message
// is just that much shorter). body is the transport's from then on: an
// in-process server returns it to tensor's byte pool once decoded.
func (r *Rig) SendFrame(c int, body []byte, cut int) error { return r.raw[c](body, cut) }

// prefix is what an in-process client sends of body: its first cut bytes
// when cut is positive.
func prefix(body []byte, cut int) []byte {
	if cut > 0 {
		return body[:cut]
	}
	return body
}

// A Builder builds one transport's rig.
type Builder struct {
	Name  string
	Build func(t testing.TB, o Options) *Rig
}

// All is every transport's builder.
var All = []Builder{
	{"mpi", buildMPI},
	{"pubsub", buildPubSub},
	{"rpc", func(t testing.TB, o Options) *Rig {
		return buildRPC(t, rpc.ServerConfig{NumClients: o.Clients, ModelSize: o.ModelSize}, 0, o.Raw)
	}},
	{"rpc-tenant", func(t testing.TB, o Options) *Rig {
		return buildRPC(t, rpc.ServerConfig{Tenants: []rpc.TenantSpec{
			{NumClients: 2, ModelSize: o.ModelSize}, {NumClients: o.Clients, ModelSize: o.ModelSize},
		}}, 1, o.Raw)
	}},
}

// buildMPI builds an mpi world. A raw client sends on its transport's
// rank (see rank), tagged as a LocalUpdate, and leaves its models in its
// mailbox, which holds more than a test dispatches.
func buildMPI(t testing.TB, o Options) *Rig {
	srv, clients := mpi.NewFLWorld(o.Clients)
	r := &Rig{Server: srv, Shutdown: func() { srv.Close() }}
	t.Cleanup(r.Shutdown)
	for _, c := range clients {
		if o.Raw {
			rc := rank(c)
			r.raw = append(r.raw, func(body []byte, cut int) error {
				rc.Send(0, int(wire.KindLocalUpdate), prefix(body, cut))
				return nil
			})
		} else {
			r.Clients = append(r.Clients, c)
		}
	}
	return r
}

// rank returns the rank an mpi client transport sends on. The transport
// keeps it unexported — no production sender writes a frame it did not
// encode — so a raw client reaches it by reflection.
func rank(c *mpi.ClientTransport) *mpi.Comm {
	f := reflect.ValueOf(c).Elem().FieldByName("c")
	if f.Type() != reflect.TypeOf((*mpi.Comm)(nil)) {
		panic("rigs: mpi.ClientTransport no longer keeps its rank in field c")
	}
	return *(**mpi.Comm)(unsafe.Pointer(f.UnsafeAddr()))
}

// buildPubSub builds a broker through the tenant constructor, which hands
// out the broker itself: a raw client publishes on it directly.
func buildPubSub(t testing.TB, o Options) *Rig {
	b, servers, clients, err := pubsub.NewTenantFLBroker([]int{o.Clients})
	if err != nil {
		t.Fatal(err)
	}
	r := &Rig{Server: servers[0], Shutdown: b.Close}
	t.Cleanup(r.Shutdown)
	for i, c := range clients[0] {
		if o.Raw {
			go drain(c)
			topic := pubsub.UpdateTopic(i)
			r.raw = append(r.raw, func(body []byte, cut int) error { return b.Publish(topic, prefix(body, cut)) })
		} else {
			r.Clients = append(r.Clients, c)
		}
	}
	return r
}

// drain receives the models dispatched to c until its transport closes.
func drain(c comm.ClientTransport) {
	for _, err := c.RecvGlobal(); err == nil; _, err = c.RecvGlobal() {
	}
}

// buildRPC listens with cfg, joins every client of every tenant — through
// rpc.Client, or raw over a bare connection — and returns tenant's view
// with tenant's clients. The other tenants' clients drain their models.
func buildRPC(t testing.TB, cfg rpc.ServerConfig, tenant int, raw bool) *Rig {
	t.Helper()
	cfg.AcceptTimeout = 10 * time.Second
	srv, err := rpc.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() { srv.Close() }
	t.Cleanup(shutdown)
	accepted := make(chan error, 1)
	go func() { accepted <- srv.Accept() }()
	sizes := []int{cfg.NumClients}
	if len(cfg.Tenants) > 0 {
		sizes = sizes[:0]
		for _, ts := range cfg.Tenants {
			sizes = append(sizes, ts.NumClients)
		}
	}
	r := &Rig{Server: srv.Tenant(tenant), Tenant: uint32(tenant), Shutdown: shutdown}
	for ti, n := range sizes {
		for i := 0; i < n; i++ {
			if raw {
				send := joinRaw(t, srv.Addr(), ti, i)
				if ti == tenant {
					r.raw = append(r.raw, send)
				}
				continue
			}
			c, err := rpc.DialTenant(srv.Addr(), uint32(ti), uint32(i), "rig")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if ti == tenant {
				r.Clients = append(r.Clients, c)
			} else {
				go drain(c)
			}
		}
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return r
}

// joinRaw joins client id of tenant over a bare connection and returns
// what writes a body on it as one LocalUpdate frame: its header announces
// the whole body, and a cut one closes the connection after its bytes.
func joinRaw(t testing.TB, addr string, tenant, id int) func(body []byte, cut int) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var e wire.Encoder
	join := e.Encode(&wire.Join{TenantID: uint32(tenant), ClientID: uint32(id)})
	if err := writeFrame(conn, wire.KindJoin, len(join), join); err != nil {
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
	return func(body []byte, cut int) error {
		err := writeFrame(conn, wire.KindLocalUpdate, len(body), prefix(body, cut))
		if cut > 0 {
			conn.Close()
		}
		return err
	}
}

// writeFrame writes one rpc frame: kind, a big-endian length, then body.
func writeFrame(w io.Writer, kind wire.Kind, size int, body []byte) error {
	var hdr [5]byte
	hdr[0] = byte(kind)
	binary.BigEndian.PutUint32(hdr[1:], uint32(size))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}
