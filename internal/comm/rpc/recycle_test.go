package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/f16"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/testutil/commtest"
	"repro/internal/wire"
)

// dialCluster brings up a server negotiating modelSize with n clients
// over loopback TCP.
func dialCluster(t *testing.T, n, modelSize int) (*Server, []*Client) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", ServerConfig{NumClients: n, Rounds: 5, ModelSize: modelSize, AcceptTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- srv.Accept() }()
	clients := make([]*Client, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i], errs[i] = Dial(srv.Addr(), uint32(i), "test-client")
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		for _, c := range clients {
			c.Close()
		}
	})
	return srv, clients
}

// TestSteadyStateAllocationGate pins the dense path's buffer recycling:
// four clients exchange a 256k-parameter model with the server over
// loopback TCP, and once two warm-up rounds have sized every encoder,
// frame buffer and pooled update, a round allocates at most a quarter of
// the bytes it puts on the wire. (Before recycling it allocated ~8×.)
func TestSteadyStateAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, warm, rounds = 4, 256 << 10, 2, 8
	srv, clients := dialCluster(t, n, dim)
	transports := make([]comm.ClientTransport, n)
	for i, c := range clients {
		transports[i] = c
	}
	echo := commtest.StartEcho(transports, dim, func() { srv.Close() })
	weights := make([]float64, dim)
	all := comm.AllClients(n)
	round := func(r int) {
		for i := range weights {
			weights[i] = float64(r)
		}
		if err := srv.SendTo(all, &wire.GlobalModel{Round: uint32(r), Weights: weights}); err != nil {
			t.Fatal(err)
		}
		ups, err := srv.GatherFrom(all)
		if err != nil {
			t.Fatal(errors.Join(err, echo.Err()))
		}
		for i, u := range ups {
			if want := float64(i) + float64(r)/1024 + float64(r); len(u.Primal) != dim || u.Primal[dim-1] != want {
				t.Fatalf("round %d client %d: primal tail %v of %d values, want %v", r, i, u.Primal[len(u.Primal)-1], len(u.Primal), want)
			}
		}
		comm.ReleaseUpdates(ups)
	}
	onWire, alloc := steadyState(srv, warm, rounds, round)
	t.Logf("per round: %.2f MB on the wire, %.3f MB allocated (%.4f×)", onWire/1e6, alloc/1e6, alloc/onWire)
	if onWire < 2*n*8*dim {
		t.Fatalf("round moved %.0f bytes, expected at least %d", onWire, 2*n*8*dim)
	}
	if alloc > 0.25*onWire {
		t.Errorf("steady-state round allocates %.0f bytes for %.0f on the wire (%.2f×), gate is 0.25×", alloc, onWire, alloc/onWire)
	}
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	if err := echo.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedRoundAllocationGate is the gate of the streamed path: four
// clients stream a 256k-parameter model in 16384-coordinate chunks over
// loopback TCP into a StreamGather, and once warm-up rounds have filled
// the chunk pool and sized every encoder, a round allocates fewer than 0.1
// objects per chunk crossing the wire. (With an ack per chunk, a frame
// header and write list per frame and a payload header per chunk, it
// allocated 9.1.)
func TestStreamedRoundAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, chunk, warm, rounds = 4, 256 << 10, 16384, 10, 40
	srv, clients := dialCluster(t, n, dim)
	start := make([]chan uint32, n)
	uploaded := make(chan error, n)
	for i, c := range clients {
		start[i] = make(chan uint32)
		defer close(start[i])
		go func(i int, c *Client) {
			u := &wire.LocalUpdate{ClientID: uint32(i), NumSamples: uint64(i + 1), Primal: make([]float64, dim)}
			for r := range start[i] {
				u.Round = r
				for k := range u.Primal {
					u.Primal[k] = float64(i) + float64(r)/1024
				}
				uploaded <- comm.StreamUpload(c, u, chunk)
			}
		}(i, c)
	}
	all := comm.AllClients(n)
	r := uint32(0)
	round := func() {
		r++
		for _, s := range start {
			s <- r
		}
		_, err := comm.StreamGather(srv, all, r, dim, chunk,
			func([]uint64) error { return nil },
			func(lo, hi int, payloads []*wire.Payload) error {
				for i, p := range payloads {
					if want := float64(i) + float64(r)/1024; p.Dense[hi-lo-1] != want {
						return fmt.Errorf("round %d client %d: chunk [%d,%d) ends in %v, want %v", r, i, lo, hi, p.Dense[hi-lo-1], want)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := comm.AckStream(srv, all, r, dim, chunk); err != nil {
			t.Fatal(err)
		}
		for range clients {
			if err := <-uploaded; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < warm; i++ {
		round()
	}
	mallocs, _ := testutil.AllocsPer(rounds, round)
	perChunk := mallocs / float64(n*wire.ChunkPlan(dim, chunk))
	t.Logf("per round: %.1f allocations, %.3f per chunk", mallocs, perChunk)
	if perChunk >= 0.1 {
		t.Errorf("a streamed round allocates %.3f objects per chunk, gate is 0.1", perChunk)
	}
}

// steadyState runs warm rounds unmeasured, then rounds more, and returns
// the bytes put on the wire and the bytes allocated per measured round
// (the whole process: server, clients and their codecs).
func steadyState(srv *Server, warm, rounds int, round func(r int)) (onWire, alloc float64) {
	for r := 1; r <= warm; r++ {
		round(r)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wire0 := srv.Stats()
	for r := warm + 1; r <= warm+rounds; r++ {
		round(r)
	}
	runtime.ReadMemStats(&m1)
	wire1 := srv.Stats()
	onWire = float64(wire1.BytesSent-wire0.BytesSent+wire1.BytesRecv-wire0.BytesRecv) / float64(rounds)
	alloc = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds)
	return onWire, alloc
}

// TestCompressedRoundAllocationGate is the dense gate for the private,
// compressed path (the wide_dp_q8 shape): the server broadcasts the model
// as float16, four clients receive it densified, perturb and quantize a
// 256k-parameter release through clip:1,laplace:5,quantize:8 and upload
// one byte a coordinate. Once warm, a round allocates at most a quarter of
// the bytes it puts on the wire: each client densifies the downlink into
// the weights its kept message holds as the codes come off the socket, the
// server decodes every upload into the code buffer its message kept, the
// quantizer releases into its own. (Before, every message built a fresh
// Payload and Codes and every release a fresh code buffer: 1.3× the wire
// bytes.) The received weights are bit for bit f16.Decode of the codes the
// server sent, and no decoder — client or server reader — holds more than
// its StreamWindow: nested payloads stream through it.
func TestCompressedRoundAllocationGate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool sheds a quarter of its puts under the race detector")
	}
	const n, dim, warm, rounds = 4, 256 << 10, 2, 8
	srv, clients := dialCluster(t, n, dim)
	specs, err := pipeline.Parse("clip:1,laplace:5,quantize:8")
	if err != nil {
		t.Fatal(err)
	}
	// roundCodes is the float16 model of round r: what the server sends,
	// and what each client decodes for itself to check what it received.
	roundCodes := func(r int, w []float64, codes []byte) []byte {
		for i := range w {
			w[i] = float64(r) + float64(i%64)/64
		}
		codes, err := pipeline.EncodeFloat16(w, codes)
		if err != nil {
			panic(err)
		}
		return codes
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for i, c := range clients {
		pipe, err := specs.Build(rng.New(uint64(i) + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			want := make([]float64, dim)
			var codes []byte
			for {
				gm, err := c.RecvGlobal()
				if err != nil || gm.Final {
					return
				}
				codes = roundCodes(int(gm.Round), want, codes)
				f16.Decode(want, codes)
				if gm.WeightsP != nil || len(gm.Weights) != dim {
					clientErrs[i] = fmt.Errorf("round %d: model arrived with payload %v and %d dense weights", gm.Round, gm.WeightsP != nil, len(gm.Weights))
				}
				for j, v := range gm.Weights {
					if math.Float64bits(v) != math.Float64bits(want[j]) {
						clientErrs[i] = fmt.Errorf("round %d: weight %d is %v, the codes sent decode to %v", gm.Round, j, v, want[j])
						break
					}
				}
				if clientErrs[i] != nil {
					c.Close()
					return
				}
				u := pipeline.NewDense(gm.Weights) // released in place, like FedAvg's z
				if err := pipe.Apply(u, 0.02); err != nil {
					clientErrs[i] = err
					c.Close()
					return
				}
				if c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, NumSamples: 1, PrimalP: u}) != nil {
					return
				}
			}
		}(i, c)
	}
	weights := make([]float64, dim)
	var codes []byte
	all := comm.AllClients(n)
	round := func(r int) {
		codes = roundCodes(r, weights, codes)
		gm := &wire.GlobalModel{Round: uint32(r), WeightsP: &wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: codes}}
		if err := srv.SendTo(all, gm); err != nil {
			t.Fatal(err)
		}
		ups, err := srv.GatherFrom(all)
		if err != nil {
			t.Fatal(errors.Join(append(clientErrs, err)...))
		}
		for i, u := range ups {
			p := u.PrimalP
			if p == nil || p.Enc != wire.EncQuant || p.Bits != 8 || len(p.Codes) != dim || p.Validate() != nil {
				t.Fatalf("round %d client %d: upload is not a %d-coordinate 8-bit payload: %+v", r, i, dim, u)
			}
			// The release spans [r − noise, r + 1 + noise): its offset names
			// the round, so a recycled payload from an earlier one shows.
			if math.Abs(p.Offset-float64(r)) > 0.5 {
				t.Fatalf("round %d client %d: payload offset %v belongs to another round", r, i, p.Offset)
			}
		}
		comm.ReleaseUpdates(ups)
	}
	onWire, alloc := steadyState(srv, warm, rounds, round)
	t.Logf("per round: %.2f MB on the wire, %.3f MB allocated (%.4f×)", onWire/1e6, alloc/1e6, alloc/onWire)
	if onWire < n*3*dim {
		t.Fatalf("round moved %.0f bytes, expected at least %d", onWire, n*3*dim)
	}
	if alloc > 0.25*onWire {
		t.Errorf("steady-state round allocates %.0f bytes for %.0f on the wire (%.2f×), gate is 0.25×", alloc, onWire, alloc/onWire)
	}
	// Each client is parked in its next RecvGlobal and each reader in its
	// next frame header: neither touches its decoder until the next send.
	for i, c := range clients {
		if w := c.dec.Window(); w > wire.StreamWindow {
			t.Errorf("client %d: decoder window grew to %d bytes, StreamWindow is %d", i, w, wire.StreamWindow)
		}
	}
	srv.mu.Lock()
	for slot, r := range srv.readers {
		if w := r.dec.Window(); w > wire.StreamWindow {
			t.Errorf("server reader %d: decoder window grew to %d bytes, StreamWindow is %d", slot, w, wire.StreamWindow)
		}
	}
	srv.mu.Unlock()
	if err := srv.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := errors.Join(clientErrs...); err != nil {
		t.Fatal(err)
	}
}

// hostileHeader is a frame header announcing just under 1 GiB.
func hostileHeader(kind wire.Kind) []byte {
	hdr := []byte{byte(kind), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], maxFrame-1)
	return hdr
}

// TestHostileFrameHeaderIsBounded: a peer's 4-byte length costs the server
// an error and next to no memory — before the peer has joined (bounded by
// a constant) and after (bounded by the negotiated model size) — and the
// other connections of the same server carry on.
func TestHostileFrameHeaderIsBounded(t *testing.T) {
	const n, dim = 3, 10
	srv, clients := dialCluster(t, n, dim)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Before joining: a stranger announces a gigabyte.
	stranger, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if _, err := stranger.Write(hostileHeader(wire.KindJoin)); err != nil {
		t.Fatal(err)
	}
	stranger.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stranger.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("server kept the stranger's connection open: read returned %v", err)
	}

	// After joining: client 0 turns hostile mid-round.
	all := comm.AllClients(n)
	if err := srv.SendTo(all, &wire.GlobalModel{Round: 1, Weights: make([]float64, dim)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		gm, err := c.RecvGlobal()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := c.current().Write(hostileHeader(wire.KindLocalUpdate)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := c.SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, Primal: make([]float64, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := srv.GatherUntil(n, 2*time.Second)
	if !errors.Is(err, comm.ErrRoundTimeout) {
		t.Fatalf("gather with a hostile member: err = %v, want a round timeout", err)
	}
	if len(got) != n-1 {
		t.Fatalf("gathered %d updates beside the hostile client, want %d", len(got), n-1)
	}
	if down := srv.Unreachable(); len(down) != 1 || down[0] != 0 {
		t.Fatalf("unreachable = %v, want the hostile client only", down)
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Errorf("two hostile headers cost %d bytes of allocation, bound is 1 MiB", grew)
	}

	// The siblings' sessions are intact: the next round runs without it.
	srv.Forgive([]int{0})
	rest := all[1:]
	if err := srv.SendTo(rest, &wire.GlobalModel{Round: 2, Weights: make([]float64, dim)}); err != nil {
		t.Fatal(err)
	}
	for _, i := range rest {
		gm, err := clients[i].RecvGlobal()
		if err != nil {
			t.Fatal(err)
		}
		if err := clients[i].SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, Primal: make([]float64, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.GatherFrom(rest); err != nil {
		t.Fatalf("siblings' round after the hostile frames: %v", err)
	}
}

// TestFrameLimitFollowsModelSize pins the bound itself.
func TestFrameLimitFollowsModelSize(t *testing.T) {
	if got := frameLimit(0); got != maxFrame {
		t.Errorf("frameLimit(0) = %d, want maxFrame", got)
	}
	const dim = 1 << 20
	lim := frameLimit(dim)
	if lim >= maxFrame || lim < 16*dim {
		t.Errorf("frameLimit(%d) = %d, want room for primal + dual and far below maxFrame", dim, lim)
	}
	var e wire.Encoder
	big := e.Encode(&wire.LocalUpdate{ClientID: 1, Round: 1, NumSamples: 1, Primal: make([]float64, dim), Dual: make([]float64, dim),
		Epsilon: 1, ComputeSec: 1, BaseVersion: 1, InCohort: true, TenantID: 1})
	if len(big) > lim {
		t.Errorf("a dense primal+dual update is %d bytes, over the %d-byte limit", len(big), lim)
	}
	if got := frameLimit(maxFrame); got != maxFrame {
		t.Errorf("frameLimit of an absurd model = %d, want maxFrame", got)
	}
}

// snapshot deep-copies a batch's vectors as bit patterns.
func snapshot(batch []*wire.LocalUpdate) [][]uint64 {
	out := make([][]uint64, len(batch))
	for i, u := range batch {
		out[i] = make([]uint64, len(u.Primal))
		for j, v := range u.Primal {
			out[i][j] = math.Float64bits(v)
		}
	}
	return out
}

func assertUnchanged(t *testing.T, what string, batch []*wire.LocalUpdate, snap [][]uint64) {
	t.Helper()
	for i, u := range batch {
		if len(u.Primal) != len(snap[i]) {
			t.Fatalf("%s: update %d shrank from %d to %d values", what, i, len(snap[i]), len(u.Primal))
		}
		for j, v := range u.Primal {
			if math.Float64bits(v) != snap[i][j] {
				t.Fatalf("%s: update %d (client %d) value %d changed after later frames were decoded", what, i, u.ClientID, j)
			}
		}
	}
}

// TestGatheredUpdatesSurviveLaterRounds is the aliasing contract of the
// recycled gather path: a batch the caller has not released is bit-for-bit
// what it was when gathered, however many later frames arrive, are
// decoded, discarded or recycled meanwhile. It runs the three gather
// shapes the schedulers use — whole-roster barrier, sampled cohort,
// arrival-ordered buffer — and mixes in a session resume and a forgiven
// straggler whose late upload is discarded into the pool. Run it with
// -race: the readers decode concurrently with the assertions.
func TestGatheredUpdatesSurviveLaterRounds(t *testing.T) {
	const n, dim = 4, 4096
	for _, shape := range []string{"syncall", "sampled", "buffered"} {
		t.Run(shape, func(t *testing.T) {
			srv, clients := dialCluster(t, n, dim)
			weights := make([]float64, dim)
			send := func(round int, ids []int) {
				t.Helper()
				for i := range weights {
					weights[i] = float64(round)
				}
				if err := srv.SendTo(ids, &wire.GlobalModel{Round: uint32(round), Weights: weights}); err != nil {
					t.Fatal(err)
				}
			}
			// reply trains and uploads for the listed clients; primal values
			// depend on client and round so a recycled buffer shows.
			reply := func(ids []int) {
				t.Helper()
				for _, i := range ids {
					gm, err := clients[i].RecvGlobal()
					if err != nil {
						t.Fatal(err)
					}
					p := make([]float64, dim)
					for j := range p {
						p[j] = float64(i*1000) + gm.Weights[j] + float64(j)/dim
					}
					if err := clients[i].SendUpdate(&wire.LocalUpdate{ClientID: uint32(i), Round: gm.Round, NumSamples: 1, Primal: p}); err != nil {
						t.Fatal(err)
					}
				}
			}
			gather := func(ids []int) []*wire.LocalUpdate {
				t.Helper()
				var ups []*wire.LocalUpdate
				var err error
				if shape == "buffered" {
					ups, err = srv.GatherAny(len(ids))
				} else {
					ups, err = srv.GatherFrom(ids)
				}
				if err != nil {
					t.Fatal(err)
				}
				return ups
			}
			cohort := func(round int) []int {
				if shape == "sampled" {
					return []int{round % n, (round + 1) % n, (round + 2) % n}
				}
				return comm.AllClients(n)
			}

			// Round 1 is gathered and released, so the pool holds storage
			// the later decodes will pick up.
			send(1, cohort(1))
			reply(cohort(1))
			comm.ReleaseUpdates(gather(cohort(1)))

			// Round 2 is gathered and KEPT.
			send(2, cohort(2))
			reply(cohort(2))
			kept := gather(cohort(2))
			snap := snapshot(kept)

			// Client 1 drops its connection and resumes the session. The
			// server acks a resume before it splices, so wait for the
			// splice signal: a dispatch racing it could land on the old
			// connection.
			srv.mu.Lock()
			spliced := srv.resumeCh
			srv.mu.Unlock()
			if err := clients[1].Resume(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-spliced:
			case <-time.After(5 * time.Second):
				t.Fatal("resume never spliced a new connection")
			}

			// Round 3: client 3 (in every cohort shape) straggles past the
			// deadline and is forgiven; the rest are gathered and released.
			ids := cohort(3)
			var prompt []int
			for _, i := range ids {
				if i != 3 {
					prompt = append(prompt, i)
				}
			}
			send(3, ids)
			reply(prompt)
			got, err := srv.GatherUntil(len(ids), 300*time.Millisecond)
			if !errors.Is(err, comm.ErrRoundTimeout) || len(got) != len(prompt) {
				t.Fatalf("round 3: %d updates, err %v; want %d and a timeout", len(got), err, len(prompt))
			}
			srv.Forgive(comm.Missing(ids, got))
			assertUnchanged(t, "after round 3's frames", kept, snap)
			comm.ReleaseUpdates(got)

			// The straggler's late round-3 upload now arrives, is decoded
			// and discarded; round 4 then recycles whatever the pool holds.
			reply([]int{3})
			send(4, cohort(4))
			reply(cohort(4))
			last := gather(cohort(4))
			for _, u := range last {
				if u.Round != 4 {
					t.Fatalf("round 4 gather returned client %d's round-%d update", u.ClientID, u.Round)
				}
			}
			assertUnchanged(t, "after the late upload and round 4", kept, snap)
			comm.ReleaseUpdates(last)
			comm.ReleaseUpdates(kept)
		})
	}
}
