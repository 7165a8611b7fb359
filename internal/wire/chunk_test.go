package wire

import (
	"errors"
	"math"
	"testing"
)

func TestModelChunkRoundTrip(t *testing.T) {
	in := ModelChunk{
		ClientID: 9, Round: 3, Version: 12, Index: 2, Count: 5,
		Lo: 64, Hi: 96, Dim: 160, NumSamples: 48,
		Payload: &Payload{Enc: EncDense, Dim: 32, Dense: make([]float64, 32)},
	}
	for i := range in.Payload.Dense {
		in.Payload.Dense[i] = float64(i) * 0.25 * math.Pi
	}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out ModelChunk
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out.ClientID != in.ClientID || out.Round != in.Round || out.Version != in.Version ||
		out.Index != in.Index || out.Count != in.Count ||
		out.Lo != in.Lo || out.Hi != in.Hi || out.Dim != in.Dim || out.NumSamples != in.NumSamples {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Payload.Dense) != len(in.Payload.Dense) {
		t.Fatalf("payload length %d, want %d", len(out.Payload.Dense), len(in.Payload.Dense))
	}
	for i := range in.Payload.Dense {
		if math.Float64bits(out.Payload.Dense[i]) != math.Float64bits(in.Payload.Dense[i]) {
			t.Fatalf("value %d not bit-identical", i)
		}
	}

	// Reuse across a stream: the second decode must not leak the first
	// chunk's fields and must recycle the payload buffer.
	in2 := ModelChunk{
		Round: 4, Index: 0, Count: 1, Lo: 0, Hi: 2, Dim: 2,
		Payload: &Payload{Enc: EncFloat16, Dim: 2, Codes: []byte{0x00, 0x3c, 0x00, 0xc0}},
	}
	e2 := NewEncoder(nil)
	in2.Marshal(e2)
	if err := out.Unmarshal(NewDecoder(e2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out.NumSamples != 0 || out.Version != 0 || out.ClientID != 0 {
		t.Fatalf("reused decode leaked previous fields: %+v", out)
	}
	if out.Payload.Enc != EncFloat16 || len(out.Payload.Dense) != 0 {
		t.Fatalf("reused payload leaked previous encoding: %+v", out.Payload)
	}
}

func TestModelChunkValidate(t *testing.T) {
	ok := func() ModelChunk {
		return ModelChunk{
			Round: 1, Index: 0, Count: 2, Lo: 0, Hi: 4, Dim: 8,
			Payload: &Payload{Enc: EncDense, Dim: 4, Dense: make([]float64, 4)},
		}
	}
	if err := (func() error { c := ok(); return c.Validate() })(); err != nil {
		t.Fatalf("valid chunk rejected: %v", err)
	}
	cases := map[string]func(*ModelChunk){
		"zero count":       func(c *ModelChunk) { c.Count = 0 },
		"index past count": func(c *ModelChunk) { c.Index = 2 },
		"inverted range":   func(c *ModelChunk) { c.Lo, c.Hi = 4, 0 },
		"range past dim":   func(c *ModelChunk) { c.Hi = 9; c.Payload.Dim = 9 },
		"missing payload":  func(c *ModelChunk) { c.Payload = nil },
		"payload dim off":  func(c *ModelChunk) { c.Payload.Dim = 3 },
		"invalid payload":  func(c *ModelChunk) { c.Payload.Dense = c.Payload.Dense[:2] },
	}
	for name, mutate := range cases {
		c := ok()
		mutate(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: got %v, want ErrBadPayload", name, err)
		}
	}
}

func TestChunkAckRoundTrip(t *testing.T) {
	in := ChunkAck{ClientID: 3, Round: 9, Index: 17}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out ChunkAck
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round-trip %+v -> %+v", in, out)
	}
}

func TestChunkPlanAndRange(t *testing.T) {
	cases := []struct {
		dim, chunk, want int
	}{
		{10, 4, 3}, {8, 4, 2}, {1, 4, 1}, {4, 4, 1}, {0, 4, 1}, {10, 0, 1},
		{1 << 20, 16384, 64},
	}
	for _, c := range cases {
		if got := ChunkPlan(c.dim, c.chunk); got != c.want {
			t.Errorf("ChunkPlan(%d, %d) = %d, want %d", c.dim, c.chunk, got, c.want)
		}
	}
	// Ranges must tile [0, dim) exactly, in order, with no overlap.
	for _, geo := range []struct{ dim, chunk int }{{10, 4}, {8, 4}, {1 << 16, 4096}, {7, 3}} {
		n := ChunkPlan(geo.dim, geo.chunk)
		next := 0
		for i := 0; i < n; i++ {
			lo, hi := ChunkRange(geo.dim, geo.chunk, i)
			if lo != next || hi < lo || hi > geo.dim {
				t.Fatalf("dim=%d chunk=%d: chunk %d range [%d,%d) breaks the tiling at %d",
					geo.dim, geo.chunk, i, lo, hi, next)
			}
			next = hi
		}
		if next != geo.dim {
			t.Fatalf("dim=%d chunk=%d: tiling ends at %d", geo.dim, geo.chunk, next)
		}
	}
}

// TestSubsetPayloadWire: encoding 4, the retired subset payload (index +
// value pairs; a subset run now uploads a plain dense prefix primal), is
// an unknown encoding: a payload or an update carrying it decodes to
// ErrBadPayload, as does a hand-built one asked to Validate or Densify.
func TestSubsetPayloadWire(t *testing.T) {
	const retired = Encoding(4)
	e := NewEncoder(nil)
	e.Uint64(1, uint64(retired))
	e.Uint64(2, 100)
	e.Uint32s(4, []uint32{3, 50, 99})
	e.Doubles(5, []float64{1, -2, 0.5})
	body := append([]byte(nil), e.Bytes()...)
	var p Payload
	if err := p.Unmarshal(NewDecoder(body)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("payload decode: got %v, want ErrBadPayload", err)
	}
	u := NewEncoder(nil)
	u.Uint64(1, 1)
	u.BytesField(10, body) // LocalUpdate's PrimalP field
	var m LocalUpdate
	if err := m.Unmarshal(NewDecoder(u.Bytes())); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("update decode: got %v, want ErrBadPayload", err)
	}
	q := Payload{Enc: retired, Dim: 100, Indices: []uint32{3}, Values: []float64{1}}
	if err := q.Validate(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Validate: got %v, want ErrBadPayload", err)
	}
	if _, err := q.Densify(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Densify: got %v, want ErrBadPayload", err)
	}
	if got := retired.String(); got != "Encoding(4)" {
		t.Fatalf("String: %q", got)
	}
}
