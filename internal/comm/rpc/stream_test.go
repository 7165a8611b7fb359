package rpc

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/testutil/commtest"
	"repro/internal/wire"
)

// TestStreamOverRPC: a chunked upload over real TCP frames reassembles
// every client's vector bit for bit, interleaved with a following slim
// LocalUpdate on the same connection (the ledger-settling pattern the
// runner uses).
func TestStreamOverRPC(t *testing.T) {
	const P, dim, chunk = 3, 300, 64
	srv, clients := startCluster(t, P)
	defer srv.Close()

	if err := srv.SendTo(comm.AllClients(P), &wire.GlobalModel{Round: 1, Weights: make([]float64, 2)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, ct := range clients {
		wg.Add(1)
		go func(i int, ct *Client) {
			defer wg.Done()
			if _, err := ct.RecvGlobal(); err != nil {
				t.Errorf("client %d recv global: %v", i, err)
				return
			}
			v := make([]float64, dim)
			for k := range v {
				v[k] = float64(i+1)*100 + float64(k)
			}
			u := &wire.LocalUpdate{
				ClientID:   uint32(i),
				Round:      1,
				NumSamples: uint64(7 + i),
				Primal:     v,
			}
			if err := comm.StreamUpload(ct, u, chunk); err != nil {
				t.Errorf("client %d stream: %v", i, err)
				return
			}
			// Slim, payload-less update settles the round's obligation.
			slim := &wire.LocalUpdate{ClientID: uint32(i), Round: 1, NumSamples: uint64(7 + i)}
			if err := ct.SendUpdate(slim); err != nil {
				t.Errorf("client %d slim update: %v", i, err)
			}
		}(i, ct)
	}
	rebuilt := make([][]float64, P)
	for i := range rebuilt {
		rebuilt[i] = make([]float64, dim)
	}
	st, err := comm.StreamGather(srv, comm.AllClients(P), 1, dim, chunk,
		func(samples []uint64) error { return nil },
		func(lo, hi int, payloads []*wire.Payload) error {
			for i, p := range payloads {
				copy(rebuilt[i][lo:hi], p.Dense)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.AckStream(srv, comm.AllClients(P), 1, dim, chunk); err != nil {
		t.Fatal(err)
	}
	// The slim updates settle through the ordinary gather afterwards.
	ups, err := srv.GatherFrom(comm.AllClients(P))
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, u := range ups {
		if len(u.Primal) != 0 || u.PrimalP != nil {
			t.Fatalf("client %d slim update carried a payload", i)
		}
		if u.NumSamples != uint64(7+i) {
			t.Fatalf("client %d slim samples %d", i, u.NumSamples)
		}
	}
	for i := range rebuilt {
		for k := range rebuilt[i] {
			want := float64(i+1)*100 + float64(k)
			if math.Float64bits(rebuilt[i][k]) != math.Float64bits(want) {
				t.Fatalf("client %d coordinate %d corrupted in transit", i, k)
			}
		}
	}
	if st.Chunks != P*wire.ChunkPlan(dim, chunk) {
		t.Fatalf("folded %d chunks", st.Chunks)
	}
}

// TestStreamAckTimeoutOverRPC: a silent server surfaces ErrAckTimeout
// through the read deadline instead of hanging the upload.
func TestStreamAckTimeoutOverRPC(t *testing.T) {
	srv, clients := startCluster(t, 1)
	defer srv.Close()
	if _, err := clients[0].RecvChunkAck(20 * time.Millisecond); err != comm.ErrAckTimeout {
		t.Fatalf("got %v, want ErrAckTimeout", err)
	}
	// The deadline must be cleared: a later ack still arrives.
	go func() {
		_ = srv.SendChunkAck(0, &wire.ChunkAck{ClientID: 0, Round: 1, Index: 0})
	}()
	a, err := clients[0].RecvChunkAck(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Round != 1 || a.Index != 0 {
		t.Fatalf("ack %+v", a)
	}
}

// TestStreamPushAheadOverRPC: a client streaming while the gather waits on
// a silent cohort member gets at most its slot's chunk channel (4), the
// chunk its connection's reader holds and what the two socket buffers
// take ahead; the round completes bit for bit once the silent member
// streams. The buffers are shrunk so TCP's share of the bound is known:
// Linux doubles each setting, so the pair holds 4×sockBuf bytes.
func TestStreamPushAheadOverRPC(t *testing.T) {
	const chunk, sockBuf = 8192, 32 << 10
	const dim = 40 * chunk
	srv, clients := dialCluster(t, 2, dim)
	for i, c := range clients {
		if err := c.current().(*net.TCPConn).SetWriteBuffer(sockBuf); err != nil {
			t.Fatal(err)
		}
		if err := srv.conn(i).(*net.TCPConn).SetReadBuffer(sockBuf); err != nil {
			t.Fatal(err)
		}
	}
	inSockets := (4*sockBuf + 8*chunk - 1) / (8 * chunk)
	commtest.PushAhead(t, srv, [2]comm.ChunkSender{clients[0], clients[1]}, 1, dim, chunk, 4+1+inSockets)
}

// TestStreamGatherFailsWhenClientDies: in explicit stream mode a cohort
// member whose connection closes after the dispatch, before its stream or
// after its first chunk, fails the stream gather with an error naming it,
// while its cohort-mate streams on — the gather must not wait for a
// stream that can never come.
func TestStreamGatherFailsWhenClientDies(t *testing.T) {
	const dim, chunk = 3 * 4096, 4096
	for name, sent := range map[string]int{"before its stream": 0, "during its stream": 1} {
		t.Run(name, func(t *testing.T) {
			srv, clients := dialCluster(t, 2, dim)
			if err := srv.SendTo(comm.AllClients(2), &wire.GlobalModel{Round: 1, Weights: make([]float64, dim)}); err != nil {
				t.Fatal(err)
			}
			up := func(i int) *wire.LocalUpdate {
				return &wire.LocalUpdate{ClientID: uint32(i), Round: 1, NumSamples: 1, Primal: make([]float64, dim)}
			}
			go func() {
				if _, err := clients[0].RecvGlobal(); err == nil {
					_ = comm.StreamUpload(clients[0], up(0), chunk)
				}
			}()
			go func() {
				if _, err := clients[1].RecvGlobal(); err != nil {
					return
				}
				_ = comm.StreamUpload(&closeAfter{clients[1], sent}, up(1), chunk)
			}()
			gathered := make(chan error, 1)
			go func() {
				_, err := comm.StreamGather(srv, comm.AllClients(2), 1, dim, chunk,
					func([]uint64) error { return nil },
					func(int, int, []*wire.Payload) error { return nil })
				gathered <- err
			}()
			select {
			case err := <-gathered:
				if err == nil || !strings.Contains(err.Error(), "client 1") {
					t.Fatalf("gather returned %v, want an error naming client 1", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the stream gather still waits on a closed connection after 10 s")
			}
		})
	}
}

// closeAfter is a client that closes its connection in place of sending
// its chunk number left.
type closeAfter struct {
	*Client
	left int
}

func (c *closeAfter) SendChunk(mc *wire.ModelChunk) error {
	if c.left == 0 {
		return c.Client.Close()
	}
	c.left--
	return c.Client.SendChunk(mc)
}
