// Package chunktest holds the flow-control check every chunk-streaming
// transport's tests run. Only test files import it.
package chunktest

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/wire"
)

// stallFor is how long a client's sent-chunk count must stand still before
// its upload counts as stopped.
const stallFor = 200 * time.Millisecond

// counter is a ChunkSender that counts the chunks its transport took.
type counter struct {
	comm.ChunkSender
	sent atomic.Int64
}

func (c *counter) SendChunk(mc *wire.ModelChunk) error {
	err := c.ChunkSender.SendChunk(mc)
	if err == nil {
		c.sent.Add(1)
	}
	return err
}

// vector is client i's deterministic upload.
func vector(dim, i int) []float64 {
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(i+1)*1e3 + float64(k)*0.25
	}
	return v
}

// PushAhead runs one streamed round of the two-client cohort {0, 1} over a
// gatherer and its clients' senders, with client 0 silent until client
// 1's upload has stopped. It fails t unless client 1's transport takes at
// most bound chunks while the gather waits on client 0 — the transport's
// queue capacity plus what is in flight — and unless, once client 0
// streams too, both uploads finish and the gather rebuilds both vectors
// bit for bit. dim and chunk must give client 1 more than bound chunks.
func PushAhead(t *testing.T, g comm.ChunkGatherer, senders [2]comm.ChunkSender, round uint32, dim, chunk, bound int) {
	t.Helper()
	count := wire.ChunkPlan(dim, chunk)
	if count <= bound {
		t.Fatalf("%d chunks cannot overrun a bound of %d", count, bound)
	}
	loud := &counter{ChunkSender: senders[1]}
	upload := func(i int, s comm.ChunkSender) <-chan error {
		done := make(chan error, 1)
		go func() {
			u := &wire.LocalUpdate{ClientID: uint32(i), Round: round, NumSamples: uint64(i + 1), Primal: vector(dim, i)}
			done <- comm.StreamUpload(s, u, chunk)
		}()
		return done
	}
	rebuilt := [2][]float64{make([]float64, dim), make([]float64, dim)}
	gathered := make(chan error, 1)
	go func() {
		_, err := comm.StreamGather(g, []int{0, 1}, round, dim, chunk,
			func([]uint64) error { return nil },
			func(lo, hi int, payloads []*wire.Payload) error {
				for i, p := range payloads {
					copy(rebuilt[i][lo:hi], p.Dense)
				}
				return nil
			})
		gathered <- err
	}()

	loudDone := upload(1, loud)
	deadline := time.Now().Add(20 * time.Second)
	last, since := loud.sent.Load(), time.Now()
	for time.Since(since) < stallFor {
		if time.Now().After(deadline) {
			t.Fatalf("client 1's upload never stopped: %d chunks sent", loud.sent.Load())
		}
		time.Sleep(5 * time.Millisecond)
		if n := loud.sent.Load(); n != last {
			last, since = n, time.Now()
		}
	}
	t.Logf("client 1 stopped after %d of %d chunks (bound %d)", last, count, bound)
	if last > int64(bound) {
		t.Errorf("client 1 pushed %d chunks ahead of a gather waiting on client 0, bound is %d", last, bound)
	}
	if last == int64(count) {
		t.Fatalf("client 1 sent all %d chunks while the gather waited on client 0", count)
	}

	quietDone := upload(0, senders[0])
	timeout := time.After(30 * time.Second)
	for _, ch := range []<-chan error{gathered, quietDone, loudDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("the streamed round did not finish once client 0 streamed")
		}
	}
	for i := range rebuilt {
		want := vector(dim, i)
		for k := range want {
			if math.Float64bits(rebuilt[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("client %d coordinate %d not bit-identical", i, k)
			}
		}
	}
}
