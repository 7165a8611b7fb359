package rpc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// readFrame reads one frame at the loose bound, payload and all.
func readFrame(r io.Reader) (wire.Kind, []byte, error) {
	var hdr frameHeader
	kind, n, err := hdr.read(r, maxFrame)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	_, err = io.ReadFull(r, payload)
	return kind, payload, err
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, wire.KindLocalUpdate, len(payload), payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != wire.KindLocalUpdate || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %v %v", kind, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, wire.KindShutdown, 0); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil || kind != wire.KindShutdown || len(got) != 0 {
		t.Fatalf("empty frame: %v %v %v", kind, got, err)
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	buf := bytes.NewBuffer([]byte{1, 0})
	if _, _, err := readFrame(buf); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, wire.KindJoin, 3, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:6] // header(5) + 1 of 3 payload bytes
	if _, _, err := readFrame(bytes.NewBuffer(b)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	// Hand-craft a header announcing 2 GiB.
	hdr := []byte{1, 0x80, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewBuffer(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame error = %v", err)
	}
}

// startCluster brings up a server with n clients over loopback TCP.
func startCluster(t *testing.T, n int) (*Server, []*Client) {
	t.Helper()
	return dialCluster(t, n, 10)
}

func TestJoinHandshakeDeliversConfig(t *testing.T) {
	_, clients := startCluster(t, 3)
	for _, c := range clients {
		cfg := c.Config()
		if cfg.NumClients != 3 || cfg.Rounds != 5 || cfg.ModelSize != 10 {
			t.Fatalf("join ack config %+v", cfg)
		}
	}
}

func TestBroadcastGatherRound(t *testing.T) {
	srv, clients := startCluster(t, 4)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			gm, err := c.RecvGlobal()
			if err != nil {
				t.Errorf("client %d recv: %v", i, err)
				return
			}
			if gm.Round != 7 || gm.Weights[1] != -2 {
				t.Errorf("client %d got %+v", i, gm)
				return
			}
			err = c.SendUpdate(&wire.LocalUpdate{
				ClientID: uint32(i),
				Round:    gm.Round,
				Primal:   []float64{float64(i) + 0.5},
				Epsilon:  math.Inf(1),
			})
			if err != nil {
				t.Errorf("client %d send: %v", i, err)
			}
		}(i, c)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Round: 7, Weights: []float64{1, -2}}); err != nil {
		t.Fatal(err)
	}
	ups, err := srv.Gather()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, u := range ups {
		if u.ClientID != uint32(i) || u.Primal[0] != float64(i)+0.5 {
			t.Fatalf("update %d: %+v", i, u)
		}
	}
}

func TestMultipleRounds(t *testing.T) {
	srv, clients := startCluster(t, 2)
	const rounds = 5
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for {
				gm, err := c.RecvGlobal()
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if gm.Final {
					return
				}
				if err := c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, Primal: []float64{1}}); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i, c)
	}
	for r := 0; r < rounds; r++ {
		if err := srv.Broadcast(&wire.GlobalModel{Round: uint32(r), Weights: []float64{0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Gather(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestServerStatsAccumulate(t *testing.T) {
	srv, clients := startCluster(t, 2)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if _, err := c.RecvGlobal(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if err := c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Primal: make([]float64, 100)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}(i, c)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Weights: make([]float64, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Gather(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	snap := srv.Stats()
	// Each direction moved >= 2 * 800 payload bytes.
	if snap.BytesSent < 1600 || snap.BytesRecv < 1600 {
		t.Fatalf("stats too small: %+v", snap)
	}
	// Join msgs (2 recv, 2 sent) + broadcast (2 sent) + gather (2 recv).
	if snap.MsgsSent != 4 || snap.MsgsRecv != 4 {
		t.Fatalf("message counts %+v", snap)
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 0}); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestDuplicateClientIDRejected(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 2, AcceptTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	c1, err := Dial(srv.Addr(), 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Second client reuses ID 0: its Dial must fail before any JoinAck, and
	// the stray must cost the host nothing — Accept keeps waiting.
	if c2, err := Dial(srv.Addr(), 0, "b"); err == nil {
		c2.Close()
		t.Fatal("duplicate client id joined")
	}
	c3, err := Dial(srv.Addr(), 1, "c")
	if err != nil {
		t.Fatalf("legitimate client after a duplicate join: %v", err)
	}
	defer c3.Close()
	if err := <-acceptDone; err != nil {
		t.Fatalf("Accept after a duplicate join: %v", err)
	}
}

// TestHostileJoinLeavesAcceptRunning: garbage instead of a Join frame, a
// wrong first frame kind, and a peer that connects and says nothing each
// cost their own connection only; the federation still assembles and runs.
func TestHostileJoinLeavesAcceptRunning(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 1, AcceptTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	for _, hostile := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xde, 0xad},    // oversized header, then junk
		{byte(wire.KindLocalUpdate), 0, 0, 0, 1, 0},   // a frame, but not a Join
		{byte(wire.KindJoin), 0, 0, 0, 3, 0x07, 0, 0}, // a Join that does not decode
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hostile)
		// The server hangs up without writing anything.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || n > 0 {
			t.Fatalf("hostile join %x was answered", hostile)
		}
		conn.Close()
	}
	c, err := Dial(srv.Addr(), 0, "legit")
	if err != nil {
		t.Fatalf("legitimate client after hostile joins: %v", err)
	}
	defer c.Close()
	if err := <-acceptDone; err != nil {
		t.Fatalf("Accept after hostile joins: %v", err)
	}
	go func() {
		if gm, err := c.RecvGlobal(); err == nil {
			c.SendUpdate(&wire.LocalUpdate{Round: gm.Round, NumSamples: 1, Primal: []float64{2}})
		}
	}()
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if ups, err := srv.Gather(); err != nil || len(ups) != 1 {
		t.Fatalf("round after hostile joins: %d updates, err %v", len(ups), err)
	}
}

func TestAcceptTimesOut(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 1, AcceptTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if err := srv.Accept(); err == nil {
		t.Fatal("accept with no clients should time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("accept timeout did not honor deadline")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	srv, clients := startCluster(t, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	_ = clients
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 1, AcceptTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.Accept()
	c, err := Dial(srv.Addr(), 0, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// Let Accept finish registering before the loop.
	time.Sleep(50 * time.Millisecond)
	weights := make([]float64, 100000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			gm, err := c.RecvGlobal()
			if err != nil || gm.Final {
				return
			}
			if err := c.SendUpdate(&wire.LocalUpdate{Primal: gm.Weights}); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Broadcast(&wire.GlobalModel{Round: uint32(i), Weights: weights}); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Gather(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	srv.Broadcast(&wire.GlobalModel{Final: true})
	<-done
	b.SetBytes(int64(8 * len(weights) * 2))
}

// TestGatherFailsWhenClientDies injects a mid-round client failure: the
// server must surface an error from Gather rather than hang.
func TestGatherFailsWhenClientDies(t *testing.T) {
	srv, clients := startCluster(t, 2)
	// Client 1 participates; client 0 dies after receiving the broadcast.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := clients[0].RecvGlobal(); err != nil {
			return
		}
		clients[0].Close()
	}()
	go func() {
		if _, err := clients[1].RecvGlobal(); err != nil {
			return
		}
		clients[1].SendUpdate(&wire.LocalUpdate{ClientID: 1, Primal: []float64{1}})
	}()
	if err := srv.Broadcast(&wire.GlobalModel{Round: 1, Weights: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	<-done
	if _, err := srv.Gather(); err == nil {
		t.Fatal("gather succeeded despite a dead client")
	}
}

// TestBroadcastFailsAfterServerClose verifies clean error propagation on a
// closed transport.
func TestBroadcastFailsAfterServerClose(t *testing.T) {
	srv, _ := startCluster(t, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Weights: []float64{1}}); err == nil {
		t.Fatal("broadcast on closed server succeeded")
	}
}

// TestGarbageFrameRejected feeds a non-protocol byte stream to the server.
func TestGarbageFrameRejected(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: 1, AcceptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{9, 0, 0, 0, 4, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptDone; err == nil {
		t.Fatal("garbage join frame accepted")
	}
}
