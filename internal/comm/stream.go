package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file implements the streaming (chunked) uplink path: a client cuts
// its model vector into fixed-size wire.ModelChunk messages and sends them
// back to back, and the server gathers chunk c from every cohort client,
// folds it into an O(chunk) window and releases it before touching chunk
// c+1 — so neither side ever holds a cohort's worth of full models. The
// upload runs at the transport's pace: every transport queues a client's
// chunks in order in a bounded per-client queue, so a client that runs
// ahead of the gather blocks in SendChunk, and the server still holds
// O(cohort × chunk). One ChunkAck per upload (AckStream), sent once the
// stream's last chunk is folded, tells the client its whole stream is in.
// Every server transport's Inbox can also cut a monolithic dense upload
// into the same windows as it decodes it (UploadWindower), on every
// transport alike, and a StreamGather then folds uploads whose clients
// never streamed and wait for no ack. Chunk transfer rides BELOW the
// obligation ledger: chunks settle nothing; the client follows its stream
// with a slim (payload-less) LocalUpdate that settles the round's
// obligation through the ordinary gather, keeping Forgive/quorum
// semantics untouched.

// ErrAckTimeout reports that a chunk ack did not arrive within the timeout
// passed to RecvChunkAck.
var ErrAckTimeout = errors.New("comm: chunk ack timeout")

// ChunkSender is a client transport that can stream chunked uploads.
type ChunkSender interface {
	// SendChunk uploads one model chunk, blocking while the transport's
	// queue for this client is full. The chunk and its payload are
	// serialized before returning, so the caller may reuse them.
	SendChunk(c *wire.ModelChunk) error
	// RecvChunkAck blocks for the next chunk ack. timeout <= 0 waits
	// forever; otherwise ErrAckTimeout is returned when it elapses. The
	// ack is valid until the next RecvChunkAck.
	RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error)
}

// ChunkGatherer is a server transport that can receive chunked uploads.
type ChunkGatherer interface {
	// RecvChunkFrom blocks for the next chunk from one client. The chunk
	// is the caller's until it hands it to ReleaseChunk (see recycle.go).
	// A nil chunk with a nil error, in place of a stream's first chunk,
	// says the client's upload carries no vector this round (a goodbye
	// settles its obligation instead).
	RecvChunkFrom(client int) (*wire.ModelChunk, error)
	// SendChunkAck tells a client that its stream is folded. The ack is
	// serialized before returning, so the caller may reuse it.
	SendChunkAck(client int, a *wire.ChunkAck) error
}

// UploadWindower is a ChunkGatherer that can cut each monolithic dense
// upload into chunk windows as it decodes it, so that the server never
// holds a decoded upload: while the mode is on, a LocalUpdate's dense
// primal of dim values arrives through RecvChunkFrom as consecutive
// windows of the given width, exactly as if its client had streamed it
// (StreamUpload), and the update itself, without the primal, through the
// ordinary gathers. The client sends its update whole and waits for no
// ack. WindowUploads(0, 0) switches the mode off. Every transport's Inbox
// offers it; a wrapper that does not forward it keeps its runs on the
// gathered path.
type UploadWindower interface {
	ChunkGatherer
	WindowUploads(window, dim int)
}

// chunkablePayload views the uplink vector of u for chunk slicing:
// a dense Primal or a still-encoded element-wise payload (float16).
func chunkablePayload(u *wire.LocalUpdate) (dim int, dense []float64, codes []byte, enc wire.Encoding, err error) {
	if len(u.Primal) > 0 {
		return len(u.Primal), u.Primal, nil, wire.EncDense, nil
	}
	if p := u.PrimalP; p != nil {
		switch p.Enc {
		case wire.EncDense:
			return int(p.Dim), p.Dense, nil, wire.EncDense, nil
		case wire.EncFloat16:
			return int(p.Dim), nil, p.Codes, wire.EncFloat16, nil
		default:
			return 0, nil, nil, 0, fmt.Errorf("comm: %s payloads cannot stream chunk-wise", p.Enc)
		}
	}
	return 0, nil, nil, 0, fmt.Errorf("comm: update carries no uplink vector to stream")
}

// outChunk is the one chunk, with its payload header, that carries every
// chunk of an upload in turn. It is pooled, so a steady run of uploads
// allocates neither.
type outChunk struct {
	c wire.ModelChunk
	p wire.Payload
}

var outChunkPool = sync.Pool{New: func() any { return new(outChunk) }}

// StreamUpload cuts u's uplink vector into chunkSize-coordinate
// wire.ModelChunks, sends them in order without waiting on the server,
// and then waits for the one ack that says the server has folded the
// whole stream. The transport sets the pace: SendChunk blocks while this
// client's chunk queue is full. u itself is NOT sent; follow the stream
// with a slim LocalUpdate via SendUpdate to settle the round's obligation.
func StreamUpload(s ChunkSender, u *wire.LocalUpdate, chunkSize int) error {
	dim, dense, codes, enc, err := chunkablePayload(u)
	if err != nil {
		return err
	}
	count := wire.ChunkPlan(dim, chunkSize)
	o := outChunkPool.Get().(*outChunk)
	defer func() {
		*o = outChunk{} // the payload aliased u
		outChunkPool.Put(o)
	}()
	c, p := &o.c, &o.p
	*p = wire.Payload{Enc: enc}
	*c = wire.ModelChunk{
		ClientID:   u.ClientID,
		Round:      u.Round,
		Version:    u.BaseVersion,
		Count:      uint32(count),
		Dim:        uint32(dim),
		NumSamples: u.NumSamples,
		Payload:    p,
	}
	for i := 0; i < count; i++ {
		lo, hi := wire.ChunkRange(dim, chunkSize, i)
		c.Index = uint32(i)
		c.Lo, c.Hi = uint32(lo), uint32(hi)
		// The payload aliases u: SendChunk serializes before it returns.
		p.Dim = uint32(hi - lo)
		if enc == wire.EncFloat16 {
			p.Codes = codes[2*lo : 2*hi]
		} else {
			p.Dense = dense[lo:hi]
		}
		if err := s.SendChunk(c); err != nil {
			return err
		}
	}
	ack, err := s.RecvChunkAck(0)
	if err != nil {
		return err
	}
	if ack.Round != c.Round || int(ack.Index) != count-1 {
		return fmt.Errorf("comm: ack for round %d chunk %d after streaming round %d's %d chunks",
			ack.Round, ack.Index, c.Round, count)
	}
	return nil
}

// gatherWindow is a StreamGather's scratch: the cohort's chunk window and
// its payload view. It is pooled like outChunk.
type gatherWindow struct {
	chunks   []*wire.ModelChunk
	payloads []*wire.Payload
	absent   []bool // clients whose upload carries no vector this round
}

var gatherPool = sync.Pool{New: func() any { return new(gatherWindow) }}

// StreamStats reports one StreamGather's outcome.
type StreamStats struct {
	// Samples is the per-client NumSamples echoed on the chunks, in
	// cohort order — known after chunk 0, before the first fold.
	Samples []uint64
	// PeakBytes is the maximum resident chunk-payload bytes at any point
	// of the gather — the streamed round's transient memory footprint,
	// O(cohort × chunk) by construction.
	PeakBytes int
	// Chunks counts chunks folded.
	Chunks int
}

// StreamGather receives one streamed upload from every listed client and
// folds it chunk by chunk: for each chunk index in order it collects the
// cohort's chunk-c payloads, hands them to fold (cohort order), and
// releases them before touching chunk c+1 — the server's resident state
// is one cohort-wide chunk window, not a cohort of models. begin runs
// once, after chunk 0 reveals every client's sample count and before the
// first fold. A client whose upload carries no vector (RecvChunkFrom's
// nil chunk) counts zero samples and hands fold a nil payload at every
// chunk, which a sample-weighted fold skips as it skips a client that
// trained on nothing. A chunk out of order — an index repeated, rewound or
// skipped — is a protocol error, like any other geometry mismatch. The
// gather acks nothing: a caller whose clients streamed follows it with
// AckStream.
func StreamGather(g ChunkGatherer, clients []int, round uint32, dim, chunkSize int,
	begin func(samples []uint64) error,
	fold func(lo, hi int, payloads []*wire.Payload) error) (*StreamStats, error) {

	count := wire.ChunkPlan(dim, chunkSize)
	st := &StreamStats{Samples: make([]uint64, len(clients))}
	w := gatherPool.Get().(*gatherWindow)
	defer func() {
		clear(w.chunks) // what a failed gather held is left to the collector
		clear(w.payloads)
		gatherPool.Put(w)
	}()
	n := len(clients)
	w.chunks = slices.Grow(w.chunks[:0], n)[:n]
	w.payloads = slices.Grow(w.payloads[:0], n)[:n]
	w.absent = slices.Grow(w.absent[:0], n)[:n]
	clear(w.absent)
	window, payloads, absent := w.chunks, w.payloads, w.absent
	resident := 0
	for c := 0; c < count; c++ {
		lo, hi := wire.ChunkRange(dim, chunkSize, c)
		for i, client := range clients {
			if absent[i] {
				continue
			}
			mc, err := recvExpected(g, client, round, c, count, dim, lo, hi)
			if err != nil {
				return st, err
			}
			if mc == nil {
				absent[i] = true // no vector: zero samples, nil payloads
				continue
			}
			if c == 0 {
				st.Samples[i] = mc.NumSamples
			} else if mc.NumSamples != st.Samples[i] {
				return st, fmt.Errorf("comm: client %d chunk %d changed NumSamples %d -> %d mid-stream",
					client, c, st.Samples[i], mc.NumSamples)
			}
			window[i], payloads[i] = mc, mc.Payload
			resident += mc.Payload.EncodedLen()
		}
		if resident > st.PeakBytes {
			st.PeakBytes = resident
		}
		if c == 0 {
			if err := begin(st.Samples); err != nil {
				return st, err
			}
		}
		if err := fold(lo, hi, payloads); err != nil {
			return st, err
		}
		for i := range clients {
			if absent[i] {
				continue
			}
			st.Chunks++
			resident -= payloads[i].EncodedLen()
			// Folded: the window rotates, and the chunk's storage goes back
			// for the next one.
			ReleaseChunk(window[i])
			window[i], payloads[i] = nil, nil
		}
	}
	return st, nil
}

var ackPool = sync.Pool{New: func() any { return new(wire.ChunkAck) }}

// AckStream tells every listed client that the stream it uploaded for
// round — dim coordinates in chunkSize chunks — is folded: one ack naming
// the stream's last chunk, the one StreamUpload waits for.
func AckStream(g ChunkGatherer, clients []int, round uint32, dim, chunkSize int) error {
	ack := ackPool.Get().(*wire.ChunkAck)
	defer ackPool.Put(ack)
	*ack = wire.ChunkAck{Round: round, Index: uint32(wire.ChunkPlan(dim, chunkSize) - 1)}
	for _, client := range clients {
		ack.ClientID = uint32(client)
		if err := g.SendChunkAck(client, ack); err != nil {
			return err
		}
	}
	return nil
}

// recvExpected is the gather's per-client receive: it validates the
// chunk against the expected stream geometry. A nil chunk (no vector this
// round) is passed on only in place of chunk 0.
func recvExpected(g ChunkGatherer, client int, round uint32, c, count, dim, lo, hi int) (*wire.ModelChunk, error) {
	mc, err := g.RecvChunkFrom(client)
	if err != nil {
		return nil, err
	}
	if mc == nil {
		if c > 0 {
			return nil, fmt.Errorf("comm: client %d's stream ended after %d of %d chunks", client, c, count)
		}
		return nil, nil
	}
	if int(mc.ClientID) != client {
		return nil, fmt.Errorf("comm: chunk from client %d on client %d's stream", mc.ClientID, client)
	}
	if mc.Round != round {
		return nil, fmt.Errorf("comm: client %d streamed round %d into round %d's gather", client, mc.Round, round)
	}
	if int(mc.Index) != c || int(mc.Count) != count || int(mc.Dim) != dim ||
		int(mc.Lo) != lo || int(mc.Hi) != hi {
		return nil, fmt.Errorf("comm: client %d sent chunk %d/%d [%d,%d) of dim %d, expected %d/%d [%d,%d) of %d",
			client, mc.Index, mc.Count, mc.Lo, mc.Hi, mc.Dim, c, count, lo, hi, dim)
	}
	return mc, nil
}
