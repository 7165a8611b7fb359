package comm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// This file implements the streaming (chunked) uplink path: a client cuts
// its model vector into fixed-size wire.ModelChunk messages and uploads
// them ack-paced (window 1), and the server gathers chunk c from every
// cohort client, folds it into an O(chunk) window, and acks — so neither
// side ever holds a cohort's worth of full models. Chunk transfer rides
// BELOW the obligation ledger: chunks settle nothing; the client follows
// its stream with a slim (payload-less) LocalUpdate that settles the
// round's obligation through the ordinary gather, keeping Forgive/quorum
// semantics untouched.

// ErrAckTimeout reports that a chunk ack did not arrive within the
// sender's patience window; StreamUpload retries the chunk.
var ErrAckTimeout = errors.New("comm: chunk ack timeout")

// ChunkSender is a client transport that can stream chunked uploads.
type ChunkSender interface {
	// SendChunk uploads one model chunk. The chunk and its payload are
	// serialized before returning, so the caller may reuse them.
	SendChunk(c *wire.ModelChunk) error
	// RecvChunkAck blocks for the next chunk ack. timeout <= 0 waits
	// forever; otherwise ErrAckTimeout is returned when it elapses.
	RecvChunkAck(timeout time.Duration) (*wire.ChunkAck, error)
}

// ChunkGatherer is a server transport that can receive chunked uploads.
type ChunkGatherer interface {
	// RecvChunkFrom blocks for the next chunk from one client. The chunk
	// is the caller's until it hands it to ReleaseChunk (see recycle.go).
	RecvChunkFrom(client int) (*wire.ModelChunk, error)
	// SendChunkAck acknowledges one folded chunk back to its sender.
	SendChunkAck(client int, a *wire.ChunkAck) error
}

// UploadOptions tune StreamUpload's retry behavior. The zero value waits
// forever on every ack — the right choice over reliable in-process
// transports, where a retry could only duplicate.
type UploadOptions struct {
	// AckTimeout is the per-chunk patience before a retransmit (<= 0:
	// wait forever, never retransmit).
	AckTimeout time.Duration
	// MaxRetries bounds retransmits per chunk; past it the upload fails.
	MaxRetries int
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

// sliceChunk cuts the window [lo, hi) out of the uplink vector as a
// chunk payload. The slices alias the update — SendChunk serializes
// before returning, so no copy is needed.
func sliceChunk(dense []float64, codes []byte, enc wire.Encoding, lo, hi int) *wire.Payload {
	p := &wire.Payload{Enc: enc, Dim: uint32(hi - lo)}
	if enc == wire.EncFloat16 {
		p.Codes = codes[2*lo : 2*hi]
	} else {
		p.Dense = dense[lo:hi]
	}
	return p
}

// StreamUpload cuts u's uplink vector into chunkSize-coordinate
// wire.ModelChunks and uploads them in order, window 1: each chunk waits
// for its ack before the next departs, and a timed-out ack retransmits
// only that chunk — never the whole model. Acks for earlier chunks
// (duplicate-delivery echoes) are skipped. u itself is NOT sent; follow
// the stream with a slim LocalUpdate via SendUpdate to settle the
// round's obligation.
func StreamUpload(s ChunkSender, u *wire.LocalUpdate, chunkSize int, opt UploadOptions) error {
	dim, dense, codes, enc, err := chunkablePayload(u)
	if err != nil {
		return err
	}
	count := wire.ChunkPlan(dim, chunkSize)
	c := wire.ModelChunk{
		ClientID:   u.ClientID,
		Round:      u.Round,
		Version:    u.BaseVersion,
		Count:      uint32(count),
		Dim:        uint32(dim),
		NumSamples: u.NumSamples,
	}
	for i := 0; i < count; i++ {
		lo, hi := wire.ChunkRange(dim, chunkSize, i)
		c.Index = uint32(i)
		c.Lo, c.Hi = uint32(lo), uint32(hi)
		c.Payload = sliceChunk(dense, codes, enc, lo, hi)
		if err := s.SendChunk(&c); err != nil {
			return err
		}
		retries := 0
		for {
			ack, err := s.RecvChunkAck(opt.AckTimeout)
			if errors.Is(err, ErrAckTimeout) {
				if retries >= opt.MaxRetries {
					return fmt.Errorf("comm: chunk %d/%d unacked after %d retransmits: %w", i, count, retries, err)
				}
				retries++
				if err := s.SendChunk(&c); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return err
			}
			if ack.Round != c.Round || int(ack.Index) > i {
				return fmt.Errorf("comm: ack for round %d chunk %d while uploading round %d chunk %d",
					ack.Round, ack.Index, c.Round, i)
			}
			if int(ack.Index) == i {
				break
			}
			// Ack for an earlier chunk: the echo of a retransmit the
			// receiver had already folded. Skip it.
		}
	}
	return nil
}

// StreamStats reports one StreamGather's outcome.
type StreamStats struct {
	// Samples is the per-client NumSamples echoed on the chunks, in
	// cohort order — known after chunk 0, before the first fold.
	Samples []uint64
	// PeakBytes is the maximum resident chunk-payload bytes at any point
	// of the gather — the streamed round's transient memory footprint,
	// O(cohort × chunk) by construction.
	PeakBytes int
	// Chunks counts chunks folded; Duplicates counts retransmits
	// absorbed (re-acked without folding).
	Chunks     int
	Duplicates int
}

// StreamGather receives one streamed upload from every listed client and
// folds it chunk by chunk: for each chunk index in order it collects the
// cohort's chunk-c payloads, hands them to fold (cohort order), acks
// them, and releases them before touching chunk c+1 — the server's
// resident state is one cohort-wide chunk window, not a cohort of
// models. begin runs once, after chunk 0 reveals every client's sample
// count and before the first fold. A retransmitted chunk (one the
// gather already folded) is re-acked and dropped, so sender retries
// cannot double-fold.
func StreamGather(g ChunkGatherer, clients []int, round uint32, dim, chunkSize int,
	begin func(samples []uint64) error,
	fold func(lo, hi int, payloads []*wire.Payload) error) (*StreamStats, error) {

	count := wire.ChunkPlan(dim, chunkSize)
	st := &StreamStats{Samples: make([]uint64, len(clients))}
	window := make([]*wire.ModelChunk, len(clients))
	payloads := make([]*wire.Payload, len(clients))
	resident := 0
	for c := 0; c < count; c++ {
		lo, hi := wire.ChunkRange(dim, chunkSize, c)
		for i, client := range clients {
			mc, err := recvExpected(g, client, round, c, count, dim, lo, hi, st)
			if err != nil {
				return st, err
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
		st.Chunks += len(clients)
		for i, client := range clients {
			ack := wire.ChunkAck{ClientID: uint32(client), Round: round, Index: uint32(c)}
			if err := g.SendChunkAck(client, &ack); err != nil {
				return st, err
			}
			resident -= payloads[i].EncodedLen()
			// Folded and acked: the window rotates, and the chunk's storage
			// goes back for the next one.
			ReleaseChunk(window[i])
			window[i], payloads[i] = nil, nil
		}
	}
	return st, nil
}

// recvExpected is the gather's per-client receive: it validates the
// chunk against the expected stream geometry and absorbs retransmits of
// already-folded chunks by re-acking them (a retry whose original did
// arrive — or whose ack was lost — must not double-fold).
func recvExpected(g ChunkGatherer, client int, round uint32, c, count, dim, lo, hi int, st *StreamStats) (*wire.ModelChunk, error) {
	for {
		mc, err := g.RecvChunkFrom(client)
		if err != nil {
			return nil, err
		}
		if int(mc.ClientID) != client {
			return nil, fmt.Errorf("comm: chunk from client %d on client %d's stream", mc.ClientID, client)
		}
		if mc.Round != round {
			return nil, fmt.Errorf("comm: client %d streamed round %d into round %d's gather", client, mc.Round, round)
		}
		if int(mc.Index) < c {
			// Retransmit of an already-folded chunk: its ack was slow or
			// lost. Re-ack so the sender advances; never fold twice.
			st.Duplicates++
			ack := wire.ChunkAck{ClientID: uint32(client), Round: round, Index: mc.Index}
			ReleaseChunk(mc)
			if err := g.SendChunkAck(client, &ack); err != nil {
				return nil, err
			}
			continue
		}
		if int(mc.Index) != c || int(mc.Count) != count || int(mc.Dim) != dim ||
			int(mc.Lo) != lo || int(mc.Hi) != hi {
			return nil, fmt.Errorf("comm: client %d sent chunk %d/%d [%d,%d) of dim %d, expected %d/%d [%d,%d) of %d",
				client, mc.Index, mc.Count, mc.Lo, mc.Hi, mc.Dim, c, count, lo, hi, dim)
		}
		return mc, nil
	}
}
