package comm_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/f16"
	"repro/internal/wire"
)

// A byteRig is one transport with a single client: what the cross-
// transport byte test drives.
type byteRig struct {
	name   string
	server interface {
		comm.ServerTransport
		comm.ChunkGatherer
	}
	client interface {
		comm.ClientTransport
		comm.ChunkSender
	}
}

func byteRigs(t *testing.T) []byteRig {
	t.Helper()
	ms, mc := mpi.NewFLWorld(1)
	ps, pc, err := pubsub.NewFLBroker(1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{NumClients: 1, Rounds: 3, ModelSize: 1000, AcceptTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() { accepted <- rs.Accept() }()
	rc, err := rpc.Dial(rs.Addr(), 0, "bytes")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rc.Close()
		rs.Close()
		ps.Close()
	})
	// rpc's one difference: its connection carries the Join handshake
	// before any model moves, and counts it. Everything after it is
	// counted as on the other transports.
	var e wire.Encoder
	join, ack := len(e.Encode(&wire.Join{ClientID: 0, Name: "bytes"})), len(e.Encode(&wire.JoinAck{NumClients: 1, Rounds: 3, ModelSize: 1000}))
	if got, want := rs.Stats(), (comm.Snapshot{BytesRecv: uint64(join), MsgsRecv: 1, BytesSent: uint64(ack), MsgsSent: 1}); got != want {
		t.Fatalf("rpc handshake counted %+v, want %+v", got, want)
	}
	return []byteRig{{"mpi", ms, mc[0]}, {"pubsub", ps, pc[0]}, {"rpc", rs, rc}}
}

// traffic is the byte deltas one message caused: what its sender counted
// sent and its receiver counted received.
type traffic struct{ sent, recv uint64 }

// measure runs exchange and returns the bytes it moved downlink (server to
// client) and uplink.
func measure(r byteRig, exchange func() error) (down, up traffic, err error) {
	s0, c0 := r.server.Stats(), r.client.Stats()
	if err := exchange(); err != nil {
		return traffic{}, traffic{}, err
	}
	s1, c1 := r.server.Stats(), r.client.Stats()
	return traffic{s1.BytesSent - s0.BytesSent, c1.BytesRecv - c0.BytesRecv},
		traffic{c1.BytesSent - c0.BytesSent, s1.BytesRecv - s0.BytesRecv}, nil
}

// TestTransportsCountEqualBytes: mpi, pubsub and rpc send the same
// wire frames, so every data message costs the same bytes on all three —
// what its sender counts sent, its receiver counts received, and both
// equal the frame's encoded length. Dense and f16 downlinks, quantized
// and top-k uplinks, a streamed chunk and its ack are covered, and so is
// IIADMM's saving: an update without its m-coordinate dual is exactly
// 8·m bytes plus the dual's field tag and length cheaper on every
// transport. rpc's Join handshake is the one difference (byteRigs checks
// it). The per-message table prints under -v.
func TestTransportsCountEqualBytes(t *testing.T) {
	const dim, m = 1000, 1000
	weights := make([]float64, dim)
	codes := make([]byte, 2*dim)
	quant := make([]byte, dim)
	for i := range weights {
		weights[i] = math.Sin(float64(i))
		h := f16.FromFloat64(weights[i])
		codes[2*i], codes[2*i+1] = byte(h), byte(h>>8)
		quant[i] = byte(i)
	}
	idx, vals := make([]uint32, dim/10), make([]float64, dim/10)
	for i := range idx {
		idx[i], vals[i] = uint32(10*i+3), weights[10*i+3]
	}
	update := func(primal, dual []float64, p *wire.Payload) *wire.LocalUpdate {
		return &wire.LocalUpdate{ClientID: 0, Round: 1, NumSamples: 64, Primal: primal, Dual: dual,
			Epsilon: math.Inf(1), InCohort: true, PrimalP: p}
	}
	chunk := &wire.ModelChunk{ClientID: 0, Round: 1, Index: 0, Count: 1, Lo: 0, Hi: dim, Dim: dim, NumSamples: 64,
		Payload: &wire.Payload{Enc: wire.EncDense, Dim: dim, Dense: weights}}
	chunkAck := &wire.ChunkAck{ClientID: 0, Round: 1, Index: 0}
	downlinks := []struct {
		name string
		gm   *wire.GlobalModel
	}{
		{"GlobalModel dense", &wire.GlobalModel{Round: 1, Weights: weights, Version: 1, CohortSize: 1}},
		{"GlobalModel f16", &wire.GlobalModel{Round: 1, Version: 1, CohortSize: 1,
			WeightsP: &wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: codes}}},
	}
	uplinks := []struct {
		name string
		u    *wire.LocalUpdate
	}{
		{"LocalUpdate dense", update(weights, nil, nil)},
		{"LocalUpdate dense+dual", update(weights, weights[:m], nil)},
		{"LocalUpdate quantize:8", update(nil, nil, &wire.Payload{Enc: wire.EncQuant, Dim: dim, Scale: 0.01, Offset: -1, Bits: 8, Codes: quant})},
		{"LocalUpdate topk", update(nil, nil, &wire.Payload{Enc: wire.EncSparse, Dim: dim, Indices: idx, Values: vals})},
	}
	type row struct {
		name  string
		frame int
		got   map[string]traffic
	}
	var rows []*row
	record := func(name string, m wire.Marshaler, transport string, tr traffic) {
		var r *row
		for _, x := range rows {
			if x.name == name {
				r = x
			}
		}
		if r == nil {
			var e wire.Encoder
			r = &row{name: name, frame: len(e.Encode(m)), got: map[string]traffic{}}
			rows = append(rows, r)
		}
		r.got[transport] = tr
	}
	slim := update(nil, nil, nil)
	for _, r := range byteRigs(t) {
		// Downlinks: a final model opens no obligation.
		for _, d := range downlinks {
			gm := *d.gm
			gm.Final = true
			down, _, err := measure(r, func() error {
				if err := r.server.Broadcast(&gm); err != nil {
					return err
				}
				_, err := r.client.RecvGlobal()
				return err
			})
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, d.name, err)
			}
			record(d.name, &gm, r.name, down)
		}
		// Uplinks settle the obligation a dispatch opened; chunks ride
		// below it and the slim update settles it.
		open := func() {
			if err := r.server.SendTo([]int{0}, &wire.GlobalModel{Round: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := r.client.RecvGlobal(); err != nil {
				t.Fatal(err)
			}
		}
		settle := func(u *wire.LocalUpdate) error {
			if err := r.client.SendUpdate(u); err != nil {
				return err
			}
			ups, err := r.server.GatherFrom([]int{0})
			comm.ReleaseUpdates(ups)
			return err
		}
		for _, u := range uplinks {
			open()
			_, up, err := measure(r, func() error { return settle(u.u) })
			if err != nil {
				t.Fatalf("%s %s: %v", r.name, u.name, err)
			}
			record(u.name, u.u, r.name, up)
		}
		open()
		_, up, err := measure(r, func() error {
			if err := r.client.SendChunk(chunk); err != nil {
				return err
			}
			c, err := r.server.RecvChunkFrom(0)
			comm.ReleaseChunk(c)
			return err
		})
		if err != nil {
			t.Fatalf("%s ModelChunk: %v", r.name, err)
		}
		record("ModelChunk dense", chunk, r.name, up)
		down, _, err := measure(r, func() error {
			if err := r.server.SendChunkAck(0, chunkAck); err != nil {
				return err
			}
			_, err := r.client.RecvChunkAck(10 * time.Second)
			return err
		})
		if err != nil {
			t.Fatalf("%s ChunkAck: %v", r.name, err)
		}
		record("ChunkAck", chunkAck, r.name, down)
		if err := settle(slim); err != nil {
			t.Fatalf("%s slim settle: %v", r.name, err)
		}
	}
	t.Log("| message | frame B | mpi | pubsub | rpc |")
	t.Log("| --- | ---: | ---: | ---: | ---: |")
	for _, r := range rows {
		line := fmt.Sprintf("| %s | %d |", r.name, r.frame)
		for _, tr := range []string{"mpi", "pubsub", "rpc"} {
			got := r.got[tr]
			if got.sent != uint64(r.frame) || got.recv != uint64(r.frame) {
				t.Errorf("%s over %s: sender counted %d B, receiver %d B, frame is %d B", r.name, tr, got.sent, got.recv, r.frame)
			}
			line += fmt.Sprintf(" %d |", got.sent)
		}
		t.Log(line)
	}
	// IIADMM's saving: the dual field costs 8·m payload bytes, its tag
	// (one byte) and its length varint, and nothing else.
	lenBytes := 1
	for v := 8 * m; v >= 0x80; v >>= 7 {
		lenBytes++
	}
	var with, without *row
	for _, r := range rows {
		switch r.name {
		case "LocalUpdate dense+dual":
			with = r
		case "LocalUpdate dense":
			without = r
		}
	}
	for _, tr := range []string{"mpi", "pubsub", "rpc"} {
		if d := with.got[tr].sent - without.got[tr].sent; d != uint64(8*m+1+lenBytes) {
			t.Errorf("%s: the %d-coordinate dual costs %d B, want 8·m + tag + length = %d", tr, m, d, 8*m+1+lenBytes)
		}
	}
}
