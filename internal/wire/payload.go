package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/f16"
)

// Encoding discriminates the vector representations a Payload can carry.
// Dense is the legacy packed-float64 form; the others are the compressed
// forms produced by the update pipeline's compression stages.
type Encoding uint8

// Payload encodings.
const (
	EncDense   Encoding = 0 // packed float64, one per coordinate
	EncSparse  Encoding = 1 // index+value pairs (top-k sparsification)
	EncQuant   Encoding = 2 // affine-quantized integer codes
	EncFloat16 Encoding = 3 // IEEE-754 half-precision floats
)

// String names the encoding for logs and errors.
func (e Encoding) String() string {
	switch e {
	case EncDense:
		return "dense"
	case EncSparse:
		return "sparse"
	case EncQuant:
		return "quant"
	case EncFloat16:
		return "float16"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// ErrBadPayload is the sentinel wrapped by every structural payload
// validation failure: unknown encoding, mismatched lengths, indices out of
// range or out of order, invalid quantization width. Adversarial or
// truncated payloads decode to an error wrapping it — never a panic.
var ErrBadPayload = errors.New("wire: malformed payload")

// Payload is a model vector in one of several wire encodings. It is the
// value the update pipeline's compression stages produce on the client and
// the server inverts back to a dense vector before aggregation.
//
// Exactly the fields of the active Enc are meaningful:
//
//	EncDense:   Dense (len == Dim)
//	EncSparse:  Indices, Values (parallel, Indices strictly increasing < Dim)
//	EncQuant:   Scale, Offset, Bits in [1,16], Codes (ceil(Bits/8) bytes/coord)
//	EncFloat16: Codes (2 bytes/coord, little-endian half floats)
type Payload struct {
	Enc     Encoding
	Dim     uint32
	Dense   []float64
	Indices []uint32
	Values  []float64
	Scale   float64
	Offset  float64
	Bits    uint8
	Codes   []byte
}

// Reset clears p for reuse, keeping every allocated buffer's capacity.
// Callers decoding into a recycled Payload should Reset it first so
// fields of a previous encoding cannot leak into the new one.
func (p *Payload) Reset() {
	p.Enc, p.Dim, p.Scale, p.Offset, p.Bits = EncDense, 0, 0, 0, 0
	p.Dense = p.Dense[:0]
	p.Indices = p.Indices[:0]
	p.Values = p.Values[:0]
	p.Codes = p.Codes[:0]
}

// recycled empties a message's receive payload for its next decode and
// returns it; nil stays nil. A decoded payload may have handed its Dense
// vector to the message (the server's two-pass inversion does), so that
// one buffer is let go rather than owned twice.
func (p *Payload) recycled() *Payload {
	if p != nil {
		p.Reset()
		p.Dense = nil
	}
	return p
}

// receivePayload decodes the nested payload field d is at into the
// payload a message keeps for the purpose (*kept, made on first use and
// emptied of whatever an earlier message left in it) and returns it. The
// body is read through d itself (nest), so on a stream its vectors and
// codes go straight into the payload's kept buffers.
func receivePayload(kept **Payload, d *Decoder) (*Payload, error) {
	if *kept == nil {
		*kept = new(Payload)
	}
	p := *kept
	p.Reset()
	o, err := d.nest()
	if err != nil {
		return nil, err
	}
	err = p.Unmarshal(d)
	d.unnest(o)
	return p, err
}

// EncodedLen returns the exact size of the body Marshal produces, so a
// container can write the length prefix first and encode in place.
func (p *Payload) EncodedLen() int {
	// Field tags here are all < 16, hence one byte each.
	n := 1 + varintLen(uint64(p.Enc))
	n += 1 + varintLen(uint64(p.Dim))
	switch p.Enc {
	case EncDense:
		n += 1 + varintLen(uint64(8*len(p.Dense))) + 8*len(p.Dense)
	case EncSparse:
		n += 1 + varintLen(uint64(4*len(p.Indices))) + 4*len(p.Indices)
		n += 1 + varintLen(uint64(8*len(p.Values))) + 8*len(p.Values)
	case EncQuant:
		n += 2 * (1 + 8) // scale, offset: fixed64
		n += 1 + varintLen(uint64(p.Bits))
		n += 1 + varintLen(uint64(len(p.Codes))) + len(p.Codes)
	case EncFloat16:
		n += 1 + varintLen(uint64(len(p.Codes))) + len(p.Codes)
	}
	return n
}

// EncodeInto appends p to e as the length-delimited nested message of
// field, without the scratch encoder (and its O(size) copy + allocation)
// Encoder.Message needs: the body size is computed up front by EncodedLen
// and the length prefix written directly.
func (p *Payload) EncodeInto(e *Encoder, field int) {
	size := p.EncodedLen()
	e.tag(field, typeBytes)
	e.varint(uint64(size))
	start := e.Len()
	p.Marshal(e)
	if e.Len()-start != size {
		// A mismatch would corrupt every following field of the stream;
		// fail loudly rather than emit an undecodable message.
		panic(fmt.Sprintf("wire: payload encoded %d bytes, EncodedLen said %d", e.Len()-start, size))
	}
}

// Marshal encodes p as a nested message body.
func (p *Payload) Marshal(e *Encoder) {
	e.Uint64(1, uint64(p.Enc))
	e.Uint64(2, uint64(p.Dim))
	switch p.Enc {
	case EncDense:
		e.Doubles(3, p.Dense)
	case EncSparse:
		e.Uint32s(4, p.Indices)
		e.Doubles(5, p.Values)
	case EncQuant:
		e.Float64(6, p.Scale)
		e.Float64(7, p.Offset)
		e.Uint64(8, uint64(p.Bits))
		e.BytesField(9, p.Codes)
	case EncFloat16:
		e.BytesField(9, p.Codes)
	}
}

// Unmarshal decodes and structurally validates p. Any malformed input —
// truncated, adversarial, or merely inconsistent — returns a typed error
// (the codec sentinels or ErrBadPayload); no input can panic the decoder
// or produce a payload that later panics Densify. Decoding into a reused
// Payload reuses its buffers' capacity (Reset first).
func (p *Payload) Unmarshal(d *Decoder) error {
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			p.Enc = Encoding(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v > math.MaxUint32 {
				return fmt.Errorf("wire: payload dimension %d overflows: %w", v, ErrBadPayload)
			}
			p.Dim = uint32(v)
		case 3:
			v, err := d.DoublesInto(p.Dense)
			if err != nil {
				return err
			}
			p.Dense = v
		case 4:
			v, err := d.Uint32sInto(p.Indices)
			if err != nil {
				return err
			}
			p.Indices = v
		case 5:
			v, err := d.DoublesInto(p.Values)
			if err != nil {
				return err
			}
			p.Values = v
		case 6:
			v, err := d.Float64()
			if err != nil {
				return err
			}
			p.Scale = v
		case 7:
			v, err := d.Float64()
			if err != nil {
				return err
			}
			p.Offset = v
		case 8:
			v, err := d.Uint64()
			if err != nil {
				return err
			}
			if v > math.MaxUint8 {
				return fmt.Errorf("wire: payload bits %d overflows: %w", v, ErrBadPayload)
			}
			p.Bits = uint8(v)
		case 9:
			v, err := d.BytesInto(p.Codes)
			if err != nil {
				return err
			}
			p.Codes = v
		default:
			if err := d.Skip(w); err != nil {
				return err
			}
		}
	}
	return p.Validate()
}

// codeWidth is the bytes-per-coordinate of the quantized encoding.
func (p *Payload) codeWidth() int {
	if p.Bits <= 8 {
		return 1
	}
	return 2
}

// Validate checks the structural invariants of the active encoding and
// returns an error wrapping ErrBadPayload on any violation.
func (p *Payload) Validate() error {
	switch p.Enc {
	case EncDense:
		if len(p.Dense) != int(p.Dim) {
			return fmt.Errorf("wire: dense payload has %d values for dim %d: %w", len(p.Dense), p.Dim, ErrBadPayload)
		}
	case EncSparse:
		if len(p.Indices) != len(p.Values) {
			return fmt.Errorf("wire: sparse payload has %d indices, %d values: %w", len(p.Indices), len(p.Values), ErrBadPayload)
		}
		if len(p.Indices) > int(p.Dim) {
			return fmt.Errorf("wire: sparse payload has %d entries for dim %d: %w", len(p.Indices), p.Dim, ErrBadPayload)
		}
		prev := int64(-1)
		for _, idx := range p.Indices {
			if int64(idx) <= prev || idx >= p.Dim {
				return fmt.Errorf("wire: sparse index %d out of order or out of range [0,%d): %w", idx, p.Dim, ErrBadPayload)
			}
			prev = int64(idx)
		}
	case EncQuant:
		if p.Bits < 1 || p.Bits > 16 {
			return fmt.Errorf("wire: quantized payload bits %d outside [1,16]: %w", p.Bits, ErrBadPayload)
		}
		if want := int(p.Dim) * p.codeWidth(); len(p.Codes) != want {
			return fmt.Errorf("wire: quantized payload has %d code bytes, want %d: %w", len(p.Codes), want, ErrBadPayload)
		}
		if math.IsNaN(p.Scale) || math.IsInf(p.Scale, 0) || p.Scale < 0 {
			return fmt.Errorf("wire: quantized payload scale %v invalid: %w", p.Scale, ErrBadPayload)
		}
		if math.IsNaN(p.Offset) || math.IsInf(p.Offset, 0) {
			return fmt.Errorf("wire: quantized payload offset %v invalid: %w", p.Offset, ErrBadPayload)
		}
	case EncFloat16:
		if len(p.Codes) != 2*int(p.Dim) {
			return fmt.Errorf("wire: float16 payload has %d code bytes for dim %d: %w", len(p.Codes), p.Dim, ErrBadPayload)
		}
	default:
		return fmt.Errorf("wire: unknown payload encoding %d: %w", uint8(p.Enc), ErrBadPayload)
	}
	return nil
}

// Densify reconstructs the dense float64 vector from any encoding into dst
// (grown as needed) and returns it. The payload must be valid (Unmarshal
// validates; hand-built payloads should call Validate first) — Densify
// re-checks and returns an error rather than panicking on bad shapes.
func (p *Payload) Densify(dst []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := int(p.Dim)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch p.Enc {
	case EncDense:
		copy(dst, p.Dense)
	case EncSparse:
		for i := range dst {
			dst[i] = 0
		}
		for i, idx := range p.Indices {
			dst[idx] = p.Values[i]
		}
	case EncQuant:
		off, scale := p.Offset, p.Scale
		if p.codeWidth() == 1 {
			for i, c := range p.Codes[:n] {
				dst[i] = off + scale*float64(c)
			}
		} else {
			codes := p.Codes[:2*n]
			for i := range dst {
				dst[i] = off + scale*float64(binary.LittleEndian.Uint16(codes[2*i:]))
			}
		}
	case EncFloat16:
		f16.Decode(dst, p.Codes)
	}
	return dst, nil
}

// WireBytes returns the exact encoded size of the payload body, used by
// the communication-volume accounting. It is EncodedLen, computed without
// encoding anything.
func (p *Payload) WireBytes() int { return p.EncodedLen() }

// Uint32s encodes field as a packed block of little-endian fixed32 values,
// the index stream of the sparse encoding.
func (e *Encoder) Uint32s(field int, v []uint32) {
	e.tag(field, typeBytes)
	e.varint(uint64(4 * len(v)))
	b := e.extend(4 * len(v))
	if b == nil {
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
}

// Uint32s reads a packed block of little-endian fixed32 values.
func (d *Decoder) Uint32s() ([]uint32, error) { return d.Uint32sInto(nil) }

// Uint32sInto reads a packed block of little-endian fixed32 values into
// dst, allocating only when its capacity is insufficient.
// The block moves like ReadDoubles': straight into dst's storage, then
// rewritten in place only on a big-endian host.
func (d *Decoder) Uint32sInto(dst []uint32) ([]uint32, error) {
	size, err := d.length()
	if err != nil {
		return nil, err
	}
	if size%4 != 0 {
		return nil, fmt.Errorf("wire: packed uint32 length %d not a multiple of 4", size)
	}
	n := size / 4
	if cap(dst) < n || dst == nil {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	var raw []byte
	if n > 0 {
		raw = unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), size)
	}
	if err := d.readRaw(raw); err != nil {
		return nil, err
	}
	if !hostLittleEndian {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
	}
	return dst, nil
}

// Message encodes m as a length-delimited nested message: a measuring
// pass yields the length prefix and m is then written in place, so
// nesting costs neither a scratch encoder nor a copy.
func (e *Encoder) Message(field int, m Marshaler) {
	e.tag(field, typeBytes)
	total, _ := e.measure(m)
	e.varint(uint64(total))
	m.Marshal(e)
}
