package wire

import "fmt"

// ModelChunk carries one fixed-size slice of a model vector: coordinates
// [Lo, Hi) of a Dim-dimensional LocalUpdate primal (uplink) or
// GlobalModel weights (downlink), as chunk Index of Count in the
// sequence. Chunks let a model far larger than one wire message — or one
// resident server buffer — cross the transport as a stream: the receiver
// folds each chunk into an O(chunk) window and releases it, so peak
// memory tracks the chunk size, not the model dimension.
//
// NumSamples and Version ride every chunk (they are a few varint bytes
// against a multi-KiB payload): the server needs every contributor's
// sample count before the first fold to compute the FedAvg weights, and
// repeating them makes each chunk self-describing.
type ModelChunk struct {
	ClientID   uint32 // producing client (uplink); unused on downlink
	Round      uint32
	Version    uint64 // base model version the chunked vector derives from
	Index      uint32 // chunk index in [0, Count)
	Count      uint32 // total chunks of the sequence
	Lo, Hi     uint32 // coordinate range [Lo, Hi) of the full vector
	Dim        uint32 // full model dimension the sequence reassembles
	NumSamples uint64 // uplink fold mass (the LocalUpdate.NumSamples echo)
	// Payload holds the chunk's values over [Lo, Hi): Payload.Dim == Hi-Lo.
	// Dense and element-wise encodings (float16, quantized) are valid —
	// they decode coordinate-at-a-time, so chunking cannot change a bit.
	// A subset payload is not: its indices are relative to the full model
	// and it rides a whole LocalUpdate, never a chunk.
	Payload *Payload
}

// Validate checks internal consistency, wrapping ErrBadPayload so
// transport decode paths surface one typed sentinel for malformed input.
func (c *ModelChunk) Validate() error {
	if c.Count == 0 {
		return fmt.Errorf("wire: chunk with zero sequence length: %w", ErrBadPayload)
	}
	if c.Index >= c.Count {
		return fmt.Errorf("wire: chunk index %d out of sequence length %d: %w", c.Index, c.Count, ErrBadPayload)
	}
	if c.Hi < c.Lo || c.Hi > c.Dim {
		return fmt.Errorf("wire: chunk range [%d,%d) escapes dimension %d: %w", c.Lo, c.Hi, c.Dim, ErrBadPayload)
	}
	if c.Payload == nil {
		return fmt.Errorf("wire: chunk without a payload: %w", ErrBadPayload)
	}
	if c.Payload.Enc == EncSubset {
		return fmt.Errorf("wire: subset payload cannot ride a chunk: %w", ErrBadPayload)
	}
	if c.Payload.Dim != c.Hi-c.Lo {
		return fmt.Errorf("wire: chunk payload dimension %d for range [%d,%d): %w",
			c.Payload.Dim, c.Lo, c.Hi, ErrBadPayload)
	}
	return c.Payload.Validate()
}

// Reset clears c for reuse, keeping the payload's buffer capacity.
func (c *ModelChunk) Reset() {
	p := c.Payload
	if p != nil {
		p.Reset()
	}
	*c = ModelChunk{Payload: p}
}

// Marshal encodes c.
func (c *ModelChunk) Marshal(e *Encoder) {
	e.Uint64(1, uint64(c.ClientID))
	e.Uint64(2, uint64(c.Round))
	if c.Version > 0 {
		e.Uint64(3, c.Version)
	}
	e.Uint64(4, uint64(c.Index))
	e.Uint64(5, uint64(c.Count))
	e.Uint64(6, uint64(c.Lo))
	e.Uint64(7, uint64(c.Hi))
	e.Uint64(8, uint64(c.Dim))
	if c.NumSamples > 0 {
		e.Uint64(9, c.NumSamples)
	}
	if c.Payload != nil {
		c.Payload.EncodeInto(e, 10)
	}
}

// Unmarshal decodes c, ignoring unknown fields. c is Reset first, so a
// struct reused across a stream reuses payload capacity without leaking
// a previous chunk's fields, and the decoded chunk is validated before
// returning — a malformed chunk cannot enter a fold window.
func (c *ModelChunk) Unmarshal(d *Decoder) error {
	c.Reset()
	seenPayload := false
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.ClientID = v
		case 2:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Round = v
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			c.Version = v
		case 4:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Index = v
		case 5:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Count = v
		case 6:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Lo = v
		case 7:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Hi = v
		case 8:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			c.Dim = v
		case 9:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			c.NumSamples = v
		case 10:
			b, err := d.BytesField()
			if err != nil {
				return err
			}
			if c.Payload == nil {
				c.Payload = &Payload{}
			}
			if err := c.Payload.Unmarshal(NewDecoder(b)); err != nil {
				return err
			}
			seenPayload = true
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	if !seenPayload {
		// Reset left a recycled (empty) payload behind; an absent field 10
		// must decode as "no payload", not as last message's buffer.
		c.Payload = nil
	}
	return c.Validate()
}

// ChunkAck tells a client that the server has folded its whole stream:
// one ack per upload, naming the stream's last chunk Index, sent after
// that chunk's fold. Flow control while the stream is in flight is the
// transport's bounded per-client queue, not the ack.
type ChunkAck struct {
	ClientID uint32
	Round    uint32
	Index    uint32
}

// Marshal encodes a.
func (a *ChunkAck) Marshal(e *Encoder) {
	e.Uint64(1, uint64(a.ClientID))
	e.Uint64(2, uint64(a.Round))
	e.Uint64(3, uint64(a.Index))
}

// Unmarshal decodes a, ignoring unknown fields.
func (a *ChunkAck) Unmarshal(d *Decoder) error {
	*a = ChunkAck{}
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			a.ClientID = v
		case 2:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			a.Round = v
		case 3:
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			a.Index = v
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// ChunkPlan returns the number of fixed-size chunks covering dim
// coordinates at the given chunk size: ceil(dim/chunk), with the final
// chunk possibly short. A zero-dimensional vector still takes one
// (empty) chunk so the sequence is never empty.
func ChunkPlan(dim, chunk int) int {
	if chunk <= 0 || dim <= 0 {
		return 1
	}
	return (dim + chunk - 1) / chunk
}

// ChunkRange returns the coordinate range [lo, hi) of chunk index i in
// the ChunkPlan(dim, chunk) sequence.
func ChunkRange(dim, chunk, i int) (lo, hi int) {
	if chunk <= 0 {
		return 0, dim
	}
	lo = i * chunk
	hi = lo + chunk
	if hi > dim {
		hi = dim
	}
	if lo > dim {
		lo = dim
	}
	return lo, hi
}
