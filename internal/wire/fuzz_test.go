package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/iotest"
)

// The fuzz targets pin the codec's central robustness contract: no input,
// however truncated or adversarial, may panic a decoder — malformed
// messages must surface ErrTruncated/ErrBadTag/ErrOverflow (or a
// formatting error) instead. `go test` exercises the seed corpus; run
// `go test -fuzz=FuzzDecodeLocalUpdate ./internal/wire` to explore.

// seedMessages returns encodings of representative messages, used to seed
// every decode fuzzer with structurally valid bytes worth mutating.
func seedMessages() [][]byte {
	var out [][]byte
	add := func(m interface{ Marshal(*Encoder) }) {
		e := NewEncoder(nil)
		m.Marshal(e)
		out = append(out, append([]byte(nil), e.Bytes()...))
	}
	add(&Join{ClientID: 7, Name: "client-7"})
	add(&Join{ClientID: 0, TenantID: 3, Name: "t3-client-0"})
	add(&JoinAck{NumClients: 203, Rounds: 50, ModelSize: 123456})
	add(&JoinAck{NumClients: 3, Rounds: 5, ModelSize: 51450, Plan: Plan{Algorithm: "fedavg", Rho: 2, Zeta: 14,
		Seed: 7, Pipeline: "clip:1,laplace:5,quantize:8", Chunk: 4096, Subset: 0.25, Train: 960, Test: 240}})
	add(&JoinAck{NumClients: 1, Plan: Plan{Algorithm: "iiadmm", Seed: 1}})
	add(&GlobalModel{Round: 3, Weights: []float64{1, -2, math.Pi}, Rho: 2.5, Version: 9, CohortSize: 4})
	add(&LocalUpdate{
		ClientID: 1, Round: 2, NumSamples: 64,
		Primal: []float64{0.5, -0.5}, Dual: []float64{1, 1},
		Epsilon: math.Inf(1), ComputeSec: 0.25, BaseVersion: 8, InCohort: true,
	})
	add(&LocalUpdate{
		ClientID: 2, Round: 1, NumSamples: 16, TenantID: 9,
		Primal: []float64{1}, Epsilon: math.Inf(1), InCohort: true,
	})
	// Compressed payloads: one of each encoding, plus messages carrying
	// them, so the fuzzers mutate structurally valid compressed frames.
	add(&Payload{Enc: EncDense, Dim: 2, Dense: []float64{1, -2}})
	add(&Payload{Enc: EncSparse, Dim: 8, Indices: []uint32{1, 5}, Values: []float64{0.5, -4}})
	add(&Payload{Enc: EncQuant, Dim: 3, Scale: 0.25, Offset: -1, Bits: 8, Codes: []byte{0, 128, 255}})
	add(&Payload{Enc: EncFloat16, Dim: 2, Codes: []byte{0x00, 0x3c, 0x00, 0xc0}})
	add(&Payload{Enc: EncSubset, Dim: 10, Indices: []uint32{2, 7}, Values: []float64{0.25, -1}})
	add(&LocalUpdate{
		ClientID: 2, Round: 3, NumSamples: 32, Epsilon: 0.5, InCohort: true,
		PrimalP: &Payload{Enc: EncSparse, Dim: 6, Indices: []uint32{0, 3}, Values: []float64{1, 2}},
	})
	add(&LocalUpdate{
		ClientID: 5, Round: 1, NumSamples: 16, Epsilon: math.Inf(1), InCohort: true,
		PrimalP: &Payload{Enc: EncSubset, Dim: 12, Indices: []uint32{0, 4, 11}, Values: []float64{1, 2, 3}},
	})
	add(&GlobalModel{
		Round: 4, Version: 2,
		WeightsP: &Payload{Enc: EncQuant, Dim: 2, Scale: 1, Offset: 0, Bits: 8, Codes: []byte{7, 9}},
	})
	add(&GlobalModel{
		Round: 5, Version: 4, CohortSize: 2,
		WeightsP: &Payload{Enc: EncFloat16, Dim: 3, Codes: []byte{0x00, 0x3c, 0x00, 0xb8, 0xff, 0x7b}},
	})
	add(&ModelChunk{
		ClientID: 3, Round: 2, Version: 7, Index: 1, Count: 4,
		Lo: 2, Hi: 4, Dim: 8, NumSamples: 64,
		Payload: &Payload{Enc: EncDense, Dim: 2, Dense: []float64{1.5, -2.5}},
	})
	add(&ModelChunk{
		ClientID: 1, Round: 1, Index: 0, Count: 1, Lo: 0, Hi: 2, Dim: 2,
		Payload: &Payload{Enc: EncFloat16, Dim: 2, Codes: []byte{0x00, 0x3c, 0x00, 0xc0}},
	})
	add(&ChunkAck{ClientID: 3, Round: 2, Index: 1})
	add(&JournalRecord{Seq: 5, Op: JournalRoundStart, Round: 2, Version: 1, Cohort: []uint32{0, 2, 5}})
	add(&JournalRecord{Seq: 6, Op: JournalAdmit, Round: 2, ClientID: 2, NumSamples: 64, BaseVersion: 1, Primal: []float64{0.5, -1.5}})
	add(&JournalRecord{Seq: 7, Op: JournalLedger, Round: 2, ClientID: 5, LedgerOp: LedgerStrike, Param: 2})
	add(&JournalRecord{Seq: 8, Op: JournalCommit, Round: 2, Version: 2, Weights: []float64{1, 2, 3}})
	add(&JournalCheckpoint{
		Seq: 8, NextRound: 3, Version: 2, Weights: []float64{1, 2, 3},
		DepartedUntil: []uint32{0, 0, 4}, BenchedUntil: []uint32{0, 3, 0},
		Strikes: []uint32{0, 1, 0}, AwaitRejoin: []uint32{0, 0, 1},
		Rejoined: 1, TimedOut: 2,
	})
	return out
}

// FuzzDecodePayload: no payload bytes, however truncated or adversarial,
// may panic the decoder — and any payload that survives decoding must be
// structurally valid, so Densify can never panic on it either.
func FuzzDecodePayload(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Add([]byte{0x08, 0x01})             // sparse with nothing else
	f.Add([]byte{0x08, 0x02, 0x10, 0xff}) // quant with a huge dim
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Payload
		if err := p.Unmarshal(NewDecoder(data)); err != nil {
			return
		}
		// Decoded OK ⇒ validated ⇒ densify must succeed without panicking
		// (cap the dimension so the fuzzer cannot allocate gigabytes). The
		// one exception is the subset encoding, which has no base vector to
		// densify against: it must refuse with the typed sentinel, never
		// panic or hand back garbage.
		if p.Dim > 1<<20 {
			return
		}
		if _, err := p.Densify(nil); err != nil {
			if p.Enc == EncSubset && errors.Is(err, ErrBadPayload) {
				return
			}
			t.Fatalf("validated payload failed to densify: %v", err)
		}
	})
}

// FuzzDecodeModelChunk: the streaming decode paths (ModelChunk and
// ChunkAck) must return typed errors on adversarial bytes — never panic,
// never over-allocate past the declared payload, and never hand back a
// chunk whose payload range disagrees with its header.
func FuzzDecodeModelChunk(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Add([]byte{0x28, 0x00})       // zero sequence length
	f.Add([]byte{0x40, 0xff, 0xff}) // huge dim with no payload
	f.Fuzz(func(t *testing.T, data []byte) {
		var c ModelChunk
		if err := c.Unmarshal(NewDecoder(data)); err == nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("decoded chunk fails its own validation: %v", err)
			}
			if c.Payload.Enc == EncSubset {
				t.Fatal("subset payload survived chunk validation")
			}
		}
		var a ChunkAck
		_ = a.Unmarshal(NewDecoder(data)) // must not panic
	})
}

// FuzzDecodeLocalUpdate: no update bytes may panic the decoder, and an
// update that decodes carries a real ε (the transports hand it to the
// aggregators unchecked).
func FuzzDecodeLocalUpdate(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Add([]byte{0x08})                                  // lone tag, truncated payload
	f.Add([]byte{0x22, 0xff})                            // length-delimited field announcing too much
	f.Add([]byte{0x31, 0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // field 6, ε = NaN
	f.Add([]byte{0x60, 0x80, 0x80, 0x80, 0x80, 0x10})    // field 12, RejoinRound = 2^32
	f.Fuzz(func(t *testing.T, data []byte) {
		var u LocalUpdate
		if err := u.Unmarshal(NewDecoder(data)); err == nil && math.IsNaN(u.Epsilon) {
			t.Fatal("decoded an update with a NaN epsilon")
		}
	})
}

// FuzzDecodeJournalRecord: the recovery path decodes journal bytes that a
// crash may have mangled arbitrarily — no input may panic, and any record
// that survives decoding carries a valid op discriminator (the replay
// switch dispatches on it unchecked).
func FuzzDecodeJournalRecord(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Add([]byte{0x10, 0x09}) // op out of range
	f.Add([]byte{0x58, 0x07}) // ledger op out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec JournalRecord
		if err := rec.Unmarshal(NewDecoder(data)); err == nil {
			if rec.Op < JournalRoundStart || rec.Op > JournalCommit {
				t.Fatalf("decoded record carries invalid op %d", rec.Op)
			}
		}
		var cp JournalCheckpoint
		if err := cp.Unmarshal(NewDecoder(data)); err == nil {
			n := len(cp.DepartedUntil)
			if len(cp.BenchedUntil) != n || len(cp.Strikes) != n || len(cp.AwaitRejoin) != n {
				t.Fatal("decoded checkpoint with disagreeing membership arrays")
			}
		}
	})
}

func FuzzDecodeGlobalModel(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m GlobalModel
		_ = m.Unmarshal(NewDecoder(data))
	})
}

// FuzzDecodeJoinAndAck additionally pins the tenancy contract: whatever
// TenantID a decoded Join carries must survive a re-encode bit for bit
// (the rpc server routes on it before acking), and a zero TenantID must
// encode to the exact pre-tenancy bytes — that omission is what makes
// every pre-tenancy client a tenant-0 client byte for byte.
func FuzzDecodeJoinAndAck(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j Join
		if err := j.Unmarshal(NewDecoder(data)); err == nil {
			e := NewEncoder(nil)
			j.Marshal(e)
			var j2 Join
			if err := j2.Unmarshal(NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("re-decode of re-encoded join: %v", err)
			}
			if j2.TenantID != j.TenantID || j2.ClientID != j.ClientID {
				t.Fatalf("join address drifted across re-encode: (%d,%d) -> (%d,%d)",
					j.TenantID, j.ClientID, j2.TenantID, j2.ClientID)
			}
		}
		var a JoinAck
		if err := a.Unmarshal(NewDecoder(data)); err == nil {
			// Whatever plan decoded must survive a re-encode unchanged
			// (NaNs aside): the client builds its Config from it.
			e := NewEncoder(nil)
			a.Marshal(e)
			var a2 JoinAck
			if err := a2.Unmarshal(NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("re-decode of re-encoded join ack: %v", err)
			}
			if p := a.Plan; p.Rho == p.Rho && p.Zeta == p.Zeta && p.Subset == p.Subset && a2 != a {
				t.Fatalf("join ack drifted across re-encode: %+v -> %+v", a, a2)
			}
		}
	})
}

// FuzzTenantIDRoundTrip: every (tenant, client) address round-trips
// through Join and LocalUpdate, and tenant 0 encodes to the identical
// bytes as a message that never heard of tenancy.
func FuzzTenantIDRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(1), uint32(7))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, tenant, client uint32) {
		j := Join{ClientID: client, TenantID: tenant, Name: "c"}
		e := NewEncoder(nil)
		j.Marshal(e)
		var gotJ Join
		if err := gotJ.Unmarshal(NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("join round-trip: %v", err)
		}
		if gotJ.TenantID != tenant || gotJ.ClientID != client {
			t.Fatalf("join round-trip (%d,%d) -> (%d,%d)", tenant, client, gotJ.TenantID, gotJ.ClientID)
		}
		u := LocalUpdate{ClientID: client, Round: 1, NumSamples: 8, TenantID: tenant, InCohort: true}
		e2 := NewEncoder(nil)
		u.Marshal(e2)
		var gotU LocalUpdate
		if err := gotU.Unmarshal(NewDecoder(e2.Bytes())); err != nil {
			t.Fatalf("update round-trip: %v", err)
		}
		if gotU.TenantID != tenant {
			t.Fatalf("update tenant %d -> %d", tenant, gotU.TenantID)
		}
		if tenant == 0 {
			legacy := Join{ClientID: client, Name: "c"}
			e3 := NewEncoder(nil)
			legacy.Marshal(e3)
			if !bytes.Equal(e.Bytes(), e3.Bytes()) {
				t.Fatal("tenant 0 join does not match the pre-tenancy encoding byte for byte")
			}
		}
	})
}

// FuzzVarintRoundTrip: every uint64 must encode and decode to itself, and
// zigzag must round-trip every int64.
func FuzzVarintRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<35 - 1, math.MaxUint64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		e := NewEncoder(nil)
		e.Uint64(1, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			t.Fatalf("tag: %v", err)
		}
		got, err := d.Uint64()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != v {
			t.Fatalf("varint round-trip %d -> %d", v, got)
		}

		s := int64(v)
		e2 := NewEncoder(nil)
		e2.Int64(2, s)
		d2 := NewDecoder(e2.Bytes())
		if _, _, err := d2.Tag(); err != nil {
			t.Fatalf("zigzag tag: %v", err)
		}
		gs, err := d2.Int64()
		if err != nil {
			t.Fatalf("zigzag decode: %v", err)
		}
		if gs != s {
			t.Fatalf("zigzag round-trip %d -> %d", s, gs)
		}
	})
}

// FuzzDoublesRoundTrip: packed doubles built from arbitrary bytes must
// round-trip bit for bit (including NaN payloads and infinities).
func FuzzDoublesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(raw[8*i+j]) << (8 * j)
			}
			vals[i] = math.Float64frombits(bits)
		}
		e := NewEncoder(nil)
		e.Doubles(1, vals)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			t.Fatalf("tag: %v", err)
		}
		got, err := d.Doubles()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(vals) {
			t.Fatalf("length %d -> %d", len(vals), len(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: %x -> %x", i, math.Float64bits(vals[i]), math.Float64bits(got[i]))
			}
		}
	})
}

// FuzzTruncatedPrefixes: every strict prefix of a valid message must
// decode to a typed codec error, never a panic and never silent success
// masquerading as the full message.
func FuzzTruncatedPrefixes(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for cut := 0; cut < len(data); cut++ {
			var u LocalUpdate
			if err := u.Unmarshal(NewDecoder(data[:cut])); err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadTag) && !errors.Is(err, ErrOverflow) &&
					!isFormatError(err) {
					t.Fatalf("cut %d: unexpected error type %v", cut, err)
				}
			}
		}
	})
}

// isFormatError recognizes the codec's fmt-wrapped errors (e.g. packed
// doubles with a length not divisible by 8).
func isFormatError(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("wire:"))
}

// TestTruncatedKnownMessagesReturnTypedErrors is the deterministic
// regression companion of the fuzzers: specific adversarial inputs return
// the documented sentinel errors.
func TestTruncatedKnownMessagesReturnTypedErrors(t *testing.T) {
	// A varint that never terminates.
	d := NewDecoder([]byte{0x80, 0x80, 0x80})
	if _, _, err := d.Tag(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated varint: %v", err)
	}
	// A varint overflowing 64 bits.
	over := bytes.Repeat([]byte{0x80}, 10)
	over = append(over, 0x02)
	d = NewDecoder(over)
	if _, _, err := d.Tag(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("overflowing varint: %v", err)
	}
	// Field number 0 is a malformed tag.
	d = NewDecoder([]byte{0x00})
	if _, _, err := d.Tag(); !errors.Is(err, ErrBadTag) {
		t.Fatalf("zero field tag: %v", err)
	}
	// A length-delimited field promising more bytes than exist.
	e := NewEncoder(nil)
	e.Doubles(4, []float64{1, 2, 3})
	full := e.Bytes()
	var u LocalUpdate
	if err := u.Unmarshal(NewDecoder(full[:len(full)-5])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated doubles: %v", err)
	}
	// Wire type 7 does not exist.
	d = NewDecoder([]byte{0x0f})
	if _, _, err := d.Tag(); !errors.Is(err, ErrBadTag) {
		t.Fatalf("wire type 7: %v", err)
	}
}

// FuzzStreamDecode: decoding a LocalUpdate while its bytes are still
// arriving (a byte per read, a 64-byte window would not matter — the
// decoder refills as it goes) agrees with decoding the buffered bytes on
// every input: both fail or both succeed, and a success re-encodes to the
// same bytes. Arbitrary input must never panic the refill logic or read
// past the announced message.
func FuzzStreamDecode(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
	}
	f.Add([]byte{0x22, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buffered, streamed LocalUpdate
		errB := buffered.Unmarshal(NewDecoder(data))
		src := bytes.NewReader(append(append([]byte(nil), data...), 0xee))
		var d Decoder
		d.ResetStream(iotest.OneByteReader(src), len(data))
		errS := streamed.Unmarshal(&d)
		if (errB == nil) != (errS == nil) {
			t.Fatalf("buffered decode: %v, streamed decode: %v", errB, errS)
		}
		if d.ReadErr() != nil {
			t.Fatalf("an intact stream reported %v", d.ReadErr())
		}
		if err := d.Drain(); err != nil || src.Len() != 1 {
			t.Fatalf("after decode+drain %d bytes remain (err %v), want the next frame's 1", src.Len(), err)
		}
		if errB == nil {
			var e1, e2 Encoder
			if !bytes.Equal(e1.Encode(&buffered), e2.Encode(&streamed)) {
				t.Fatal("streamed decode differs from buffered decode")
			}
		}
	})
}
