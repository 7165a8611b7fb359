// Package wire implements a protocol-buffers-style binary codec and the
// message schema exchanged between the APPFL server and clients. It stands
// in for gRPC's protobuf layer: varint-encoded tags and lengths, zigzag
// signed integers, IEEE-754 fixed64 doubles, and packed repeated fields.
// Every model upload/download in the RPC transport passes through this
// codec, so serialization cost — one of the two causes the paper gives for
// gRPC's slowdown versus RDMA-enabled MPI — is real and measurable here.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Wire types, following the protobuf encoding.
const (
	typeVarint  = 0
	typeFixed64 = 1
	typeBytes   = 2
)

// Encoding/decoding errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOverflow  = errors.New("wire: varint overflows 64 bits")
	ErrBadTag    = errors.New("wire: malformed field tag")
)

// Marshaler is any message of the schema: it writes its fields to an
// Encoder and nothing else, so the same method serves the measuring pass
// and the writing pass of Encode.
type Marshaler interface{ Marshal(*Encoder) }

// Encoder appends encoded fields to a byte buffer. While measuring, the
// field writers only count the bytes they would append. While gathering
// (EncodeVectored), large float64 and byte blocks are not appended at all:
// the encoder records where each one belongs and hands it out by reference.
type Encoder struct {
	buf       []byte
	measuring bool
	n         int // bytes counted while measuring (referenced blocks included)

	gathering bool
	refs      []blockRef // referenced blocks, in message order
	refBytes  int        // their total size
}

// blockRef is a block of the message that lives outside buf: it belongs
// between buf[:at] and buf[at:].
type blockRef struct {
	at    int
	block []byte
}

// gatherMin is the smallest block worth its own slot in a vectored write;
// anything shorter is cheaper to copy than to describe.
const gatherMin = 4 << 10

// NewEncoder returns an encoder, optionally reusing buf's storage.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int {
	if e.measuring {
		return e.n
	}
	return len(e.buf) + e.refBytes
}

// Reset truncates the encoder for reuse, keeping its capacity — the
// steady-state form of NewEncoder(e.Bytes()) without a new Encoder value.
func (e *Encoder) Reset() { e.buf, e.refs, e.refBytes = e.buf[:0], e.refs[:0], 0 }

// Encode resets e and encodes m into a buffer sized exactly once: a
// measuring pass over m's fields yields the encoded length, the buffer is
// grown to it if its capacity falls short, and the fields are then written
// without a further allocation. The returned bytes alias e and are valid
// until its next use; an encoder that is kept allocates for its first
// message and then only when a message outgrows every earlier one.
func (e *Encoder) Encode(m Marshaler) []byte {
	e.encode(m)
	return e.buf
}

// EncodeVectored is Encode for a writer that can send several slices in
// one call: on a little-endian host every packed float64 block and every
// byte string (a compressed payload's codes) of at least gatherMin bytes
// stays where it is, and the message comes back as e's own bytes
// interleaved with views of m's vectors, appended to dst[:0] —
// concatenated, exactly the bytes Encode produces. A model then crosses
// from its []float64 or code buffer to the socket without an intermediate
// copy, and e only ever holds the few bytes around the blocks. The slices
// alias e and m: they are valid until e's next use, and only while m's
// vectors are left untouched.
func (e *Encoder) EncodeVectored(m Marshaler, dst [][]byte) [][]byte {
	e.gathering = hostLittleEndian
	e.encode(m)
	e.gathering = false
	dst = dst[:0]
	prev := 0
	for _, r := range e.refs {
		if r.at > prev {
			dst = append(dst, e.buf[prev:r.at])
		}
		dst = append(dst, r.block)
		prev = r.at
	}
	if prev < len(e.buf) {
		dst = append(dst, e.buf[prev:])
	}
	return dst
}

func (e *Encoder) encode(m Marshaler) {
	e.Reset()
	total, referenced := e.measure(m)
	if own := total - referenced; cap(e.buf) < own {
		e.buf = make([]byte, 0, own)
	}
	m.Marshal(e)
}

// measure returns the number of bytes m.Marshal produces and how many of
// them it would leave referenced, leaving e as it was; it may be called in
// the middle of either pass.
func (e *Encoder) measure(m Marshaler) (total, referenced int) {
	was, n0, r0 := e.measuring, e.n, e.refBytes
	e.measuring = true
	m.Marshal(e)
	total, referenced = e.n-n0, e.refBytes-r0
	e.measuring, e.n, e.refBytes = was, n0, r0
	return total, referenced
}

// extend grows the message by n bytes and returns them for the caller to
// fill, or nil while measuring. Under Encode the capacity is already
// there; an encoder that was not sized first grows here, at most once per
// block (append sizes a block that dwarfs what precedes it exactly, and a
// trailing scalar by its amortised rule).
func (e *Encoder) extend(n int) []byte {
	if e.measuring {
		e.n += n
		return nil
	}
	l := len(e.buf)
	if cap(e.buf)-l < n {
		e.buf = append(e.buf, make([]byte, n)...)
	} else {
		e.buf = e.buf[:l+n]
	}
	return e.buf[l:]
}

// varintLen returns the encoded size of v, for length-prefix computation.
func varintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (e *Encoder) varint(v uint64) {
	if e.measuring {
		e.n += varintLen(v)
		return
	}
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

func (e *Encoder) tag(field, wtype int) { e.varint(uint64(field)<<3 | uint64(wtype)) }

// Uint64 encodes field as a varint.
func (e *Encoder) Uint64(field int, v uint64) {
	e.tag(field, typeVarint)
	e.varint(v)
}

// Int64 encodes field as a zigzag varint.
func (e *Encoder) Int64(field int, v int64) {
	e.Uint64(field, uint64(v<<1)^uint64(v>>63))
}

// Bool encodes field as a 0/1 varint.
func (e *Encoder) Bool(field int, v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	e.Uint64(field, b)
}

// Float64 encodes field as fixed64.
func (e *Encoder) Float64(field int, v float64) {
	e.tag(field, typeFixed64)
	if b := e.extend(8); b != nil {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	}
}

// BytesField encodes field as a length-delimited byte string.
func (e *Encoder) BytesField(field int, v []byte) {
	e.tag(field, typeBytes)
	e.varint(uint64(len(v)))
	if e.gathering && len(v) >= gatherMin {
		e.reference(v)
		return
	}
	copy(e.extend(len(v)), v)
}

// reference leaves block where it is: the vectored writer sends it from
// its own storage, between what e holds so far and what follows.
func (e *Encoder) reference(block []byte) {
	e.refBytes += len(block)
	if e.measuring {
		e.n += len(block)
	} else {
		e.refs = append(e.refs, blockRef{at: len(e.buf), block: block})
	}
}

// String encodes field as a length-delimited UTF-8 string.
func (e *Encoder) String(field int, v string) {
	e.tag(field, typeBytes)
	e.varint(uint64(len(v)))
	copy(e.extend(len(v)), v)
}

// hostLittleEndian reports whether a float64's bytes in memory are already
// its wire form, in which case a block of them moves with one copy. Tests
// clear it to run the portable loops on a little-endian host.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64Bytes views v's storage as bytes. Only ever this direction: a
// byte slice has no alignment to violate.
func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// Doubles encodes field as a packed repeated double: a length-delimited
// block of little-endian fixed64 values. This is the dominant payload of
// every model exchange: the block is sized once and moved in one pass —
// a single copy where the host is little-endian, bit for bit (NaN
// payloads, -0 and subnormals included) what the per-value loop writes.
func (e *Encoder) Doubles(field int, v []float64) {
	e.tag(field, typeBytes)
	e.varint(uint64(8 * len(v)))
	if e.gathering && 8*len(v) >= gatherMin {
		e.reference(float64Bytes(v))
		return
	}
	b := e.extend(8 * len(v))
	if b == nil {
		return
	}
	if hostLittleEndian {
		copy(b, float64Bytes(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Decoder consumes encoded fields from a buffer — the whole message
// (NewDecoder, Reset), or a window the decoder refills from a stream that
// is still delivering the message (ResetStream).
type Decoder struct {
	buf []byte
	pos int

	// Stream mode: buf is a window into own, refilled from src.
	src  io.Reader
	left int    // message bytes src still holds
	own  []byte // the window's storage, kept across messages
	rerr error  // the read error that cut the message short, if any
}

// StreamWindow is how far a streaming decoder reads ahead, and all it
// ever holds of a message: scalar fields are parsed out of the window, a
// nested message field by field through it, and a packed block or byte
// string is read past it straight into its destination.
const StreamWindow = 4 << 10

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at a new buffer, for callers that amortize the
// Decoder value itself across messages.
func (d *Decoder) Reset(buf []byte) {
	d.buf, d.pos = buf, 0
	d.src, d.left, d.rerr = nil, 0, nil
}

// ResetStream points the decoder at a message of n bytes that r is about
// to deliver. Fields are parsed out of a small window the decoder keeps
// and refills; a packed float64 block, a packed uint32 block or a byte
// string is read from r straight into the slice it decodes to, so a model
// crosses from the socket to its []float64 (or a payload's codes to its
// kept buffer) in one pass and no frame-sized buffer exists. A nested
// message is decoded field by field through the same window, so the
// window stays StreamWindow bytes whatever the stream carries; only
// BytesField (and String), which return a view of the window, grow it to
// the field they are asked for. Decoding consumes exactly n bytes of r when it
// succeeds; after a failure Drain skips the rest, unless the failure was
// r's own (ReadErr).
func (d *Decoder) ResetStream(r io.Reader, n int) {
	d.buf, d.pos = d.own[:0], 0
	d.src, d.left, d.rerr = r, n, nil
}

// ReadErr returns the stream error that ended decoding early: the message
// was cut short by its transport, not malformed.
func (d *Decoder) ReadErr() error { return d.rerr }

// Window returns the capacity of the window a streaming decoder keeps
// across messages: at most StreamWindow unless BytesField asked for more.
func (d *Decoder) Window() int { return cap(d.own) }

// Drain discards what the stream still holds of the current message, so
// the next message can be read after a decode error.
func (d *Decoder) Drain() error {
	if d.src == nil || d.left == 0 {
		return nil
	}
	_, err := io.CopyN(io.Discard, d.src, int64(d.left))
	d.left = 0
	return err
}

// More reports whether any bytes remain.
func (d *Decoder) More() bool { return d.pos < len(d.buf) || d.left > 0 }

// need makes at least k unread bytes available at d.buf[d.pos:], pulling
// them from the stream if there is one.
func (d *Decoder) need(k int) error {
	unread := len(d.buf) - d.pos
	if unread >= k {
		return nil
	}
	if k-unread > d.left {
		return ErrTruncated // also the answer of a decoder with no stream
	}
	// Slide the unread tail to the front of the window and read on: up to
	// a window's worth ahead, never past the message.
	size := max(k, StreamWindow)
	if cap(d.own) < size {
		grown := make([]byte, size)
		copy(grown, d.buf[d.pos:])
		d.own = grown
	} else {
		copy(d.own[:unread], d.buf[d.pos:])
	}
	end := min(unread+d.left, cap(d.own))
	n, err := io.ReadAtLeast(d.src, d.own[unread:end], k-unread)
	d.left -= n
	d.buf, d.pos = d.own[:unread+n], 0
	if err != nil {
		d.rerr = err
		return err
	}
	return nil
}

func (d *Decoder) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			if err := d.need(1); err != nil {
				return 0, err
			}
		}
		b := d.buf[d.pos]
		d.pos++
		if shift == 63 && b > 1 {
			return 0, ErrOverflow
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, ErrOverflow
		}
	}
}

// Tag reads the next field tag, returning field number and wire type.
func (d *Decoder) Tag() (field, wtype int, err error) {
	t, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	field = int(t >> 3)
	wtype = int(t & 7)
	if field == 0 || wtype > typeBytes {
		return 0, 0, ErrBadTag
	}
	return field, wtype, nil
}

// Uint64 reads a varint payload.
func (d *Decoder) Uint64() (uint64, error) { return d.varint() }

// Uint32 reads a varint payload for a uint32 field, refusing a value that
// does not fit instead of truncating it.
func (d *Decoder) Uint32() (uint32, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("wire: value %d overflows a uint32 field", v)
	}
	return uint32(v), nil
}

// Int64 reads a zigzag varint payload.
func (d *Decoder) Int64() (int64, error) {
	u, err := d.varint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// Bool reads a varint payload as a bool.
func (d *Decoder) Bool() (bool, error) {
	u, err := d.varint()
	return u != 0, err
}

// Float64 reads a fixed64 payload.
func (d *Decoder) Float64() (float64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

// length reads the byte count of a length-delimited payload and checks it
// against what is left of the message.
func (d *Decoder) length() (int, error) {
	n, err := d.varint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.pos+d.left) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// BytesField reads a length-delimited payload without copying. On a
// stream the slice is a view of the window, which grows to hold it, and
// is valid until the next field is read; BytesInto reads past the window.
func (d *Decoder) BytesField() ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out, nil
}

// BytesInto reads a length-delimited payload into dst, allocating only
// when dst's capacity falls short: on a stream the bytes go from the
// source straight into dst, so a byte string of any length passes the
// window by.
func (d *Decoder) BytesInto(dst []byte) ([]byte, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if err := d.readRaw(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// String reads a length-delimited payload as a string.
func (d *Decoder) String() (string, error) {
	b, err := d.BytesField()
	return string(b), err
}

// nest reads the length prefix of a nested message and narrows d to its
// body: until unnest, More, every read and the window's refills stop at
// the body's end, so the nested message decodes through d itself, field
// by field, as if it were the whole message. The returned outer is what
// unnest needs to restore the rest of the message, whether or not the
// body was decoded in full.
func (d *Decoder) nest() (outer, error) {
	n, err := d.length()
	if err != nil {
		return outer{}, err
	}
	if unread := len(d.buf) - d.pos; n <= unread {
		// The window holds the whole body (always so without a stream):
		// cut the window at its end, and read nothing more.
		o := outer{end: len(d.buf), rest: d.left}
		d.buf, d.left = d.buf[:d.pos+n], 0
		return o, nil
	}
	// The body runs on into the stream: refills stop at its end.
	beyond := n - (len(d.buf) - d.pos)
	o := outer{end: -1, rest: d.left - beyond}
	d.left = beyond
	return o, nil
}

// outer is the part of a message a nest left out: the window's length
// where the body ended inside it (-1 when it ran on into the stream), and
// the bytes of the stream after the body.
type outer struct{ end, rest int }

// unnest widens d back to the message that held the nested body.
func (d *Decoder) unnest(o outer) {
	if o.end >= 0 {
		d.buf = d.buf[:o.end] // the narrowed window never refilled
	}
	d.left += o.rest
}

// Doubles reads a packed repeated double payload into a fresh slice.
func (d *Decoder) Doubles() ([]float64, error) { return d.DoublesInto(nil) }

// DoublesInto reads a packed repeated double payload into dst, allocating
// only when dst's capacity is insufficient — the steady-state decode path
// of every model exchange reuses one buffer across rounds.
func (d *Decoder) DoublesInto(dst []float64) ([]float64, error) {
	n, err := d.PackedDoubles()
	if err != nil {
		return nil, err
	}
	if cap(dst) < n || dst == nil {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if err := d.ReadDoubles(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// PackedDoubles reads the length prefix of a packed repeated double
// payload and returns how many values follow, leaving them unread:
// ReadDoubles then takes them piece by piece, so a reader can hand a long
// vector on in windows of its own without ever holding the whole of it.
// The caller reads exactly that many values before the next field.
func (d *Decoder) PackedDoubles() (int, error) {
	size, err := d.length()
	if err != nil {
		return 0, err
	}
	if size%8 != 0 {
		return 0, fmt.Errorf("wire: packed doubles length %d not a multiple of 8", size)
	}
	return size / 8, nil
}

// ReadDoubles reads the next len(dst) values of the packed double payload
// PackedDoubles opened into dst. The block moves in bulk: what the
// decoder already holds is copied into dst's storage, the rest is read
// there from the stream, and only a big-endian host then rewrites the
// values in place.
func (d *Decoder) ReadDoubles(dst []float64) error {
	raw := float64Bytes(dst)
	if err := d.readRaw(raw); err != nil {
		return err
	}
	if !hostLittleEndian {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return nil
}

// readRaw fills dst with the message's next len(dst) bytes: what the
// window holds, then the rest read from the stream straight into dst.
func (d *Decoder) readRaw(dst []byte) error {
	if len(dst) > len(d.buf)-d.pos+d.left {
		return ErrTruncated
	}
	held := copy(dst, d.buf[d.pos:])
	d.pos += held
	if held < len(dst) {
		got, err := io.ReadFull(d.src, dst[held:])
		d.left -= got
		if err != nil {
			d.rerr = err
			return err
		}
	}
	return nil
}

// Skip discards a payload of the given wire type, allowing decoders to
// ignore unknown fields (forward compatibility, as in protobuf).
func (d *Decoder) Skip(wtype int) error {
	switch wtype {
	case typeVarint:
		_, err := d.varint()
		return err
	case typeFixed64:
		if err := d.need(8); err != nil {
			return err
		}
		d.pos += 8
		return nil
	case typeBytes:
		n, err := d.length()
		if err != nil {
			return err
		}
		return d.discard(n)
	default:
		return ErrBadTag
	}
}

// discard skips the next n bytes of the message: what the window holds,
// then the rest straight off the stream, so a skipped field costs no
// buffer of its size.
func (d *Decoder) discard(n int) error {
	held := min(n, len(d.buf)-d.pos)
	d.pos += held
	if rest := n - held; rest > 0 {
		got, err := io.CopyN(io.Discard, d.src, int64(rest))
		d.left -= int(got)
		if err != nil {
			d.rerr = err
			return err
		}
	}
	return nil
}
