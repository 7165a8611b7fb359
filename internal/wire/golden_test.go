package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// forcePortable runs fn with the bulk-copy fast path switched off, so the
// loops a big-endian host would run are exercised on this one.
func forcePortable(t *testing.T, fn func()) {
	t.Helper()
	was := hostLittleEndian
	hostLittleEndian = false
	defer func() { hostLittleEndian = was }()
	fn()
}

// TestGoldenBytes: every message kind encodes to exactly the bytes the
// pre-bulk codec produced — through the sizing entry point the transports
// use, through a bare Marshal, and out of an encoder whose buffer is dirty
// from a larger message — and decoding those bytes and re-encoding them
// reproduces them, on both the bulk and the portable path.
func TestGoldenBytes(t *testing.T) {
	golden := readGolden(t)
	msgs := goldenMessages()
	if len(golden) != len(msgs) {
		t.Fatalf("fixture has %d messages, goldenMessages %d", len(golden), len(msgs))
	}
	check := func(t *testing.T) {
		var reused Encoder
		reused.Encode(&GlobalModel{Weights: make([]float64, 4096)}) // leave a larger, dirty buffer behind
		for i := range reused.buf[:cap(reused.buf)] {
			reused.buf[:cap(reused.buf)][i] = 0xa5
		}
		for _, g := range msgs {
			want, ok := golden[g.name]
			if !ok {
				t.Errorf("%s: not in fixture", g.name)
				continue
			}
			var sized Encoder
			if got := sized.Encode(g.m); !bytes.Equal(got, want) {
				t.Errorf("%s: Encode differs from the parent's bytes\n got %x\nwant %x", g.name, got, want)
			}
			if cap(sized.buf) != len(want) {
				t.Errorf("%s: Encode sized its buffer to %d for a %d-byte message", g.name, cap(sized.buf), len(want))
			}
			bare := NewEncoder(nil)
			g.m.Marshal(bare)
			if !bytes.Equal(bare.Bytes(), want) {
				t.Errorf("%s: Marshal into an unsized encoder differs from the parent's bytes", g.name)
			}
			if got := reused.Encode(g.m); !bytes.Equal(got, want) {
				t.Errorf("%s: Encode into a recycled buffer differs from the parent's bytes", g.name)
			}
			back := g.fresh()
			if err := back.Unmarshal(NewDecoder(want)); err != nil {
				t.Errorf("%s: decoding the parent's bytes: %v", g.name, err)
				continue
			}
			if got := sized.Encode(back); !bytes.Equal(got, want) {
				t.Errorf("%s: decode → encode does not reproduce the parent's bytes", g.name)
			}
		}
	}
	t.Run("bulk", check)
	t.Run("portable", func(t *testing.T) { forcePortable(t, func() { check(t) }) })
}

// TestEncodeSteadyStateAllocs: an encoder kept across messages, as every
// connection keeps one, allocates nothing once it has seen its largest
// message.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	u := &LocalUpdate{ClientID: 1, Round: 2, NumSamples: 3, Primal: goldenVector(1<<12, 1), Dual: goldenVector(1<<12, 2)}
	var e Encoder
	e.Encode(u)
	if a := testing.AllocsPerRun(20, func() { e.Encode(u) }); a != 0 {
		t.Errorf("Encode into a warmed encoder allocates %.0f times per message", a)
	}
}

// bigUpdate carries vectors well past gatherMin and StreamWindow, so the
// referenced-block and read-into-place paths run, salted with the special
// values of goldenVector.
func bigUpdate() *LocalUpdate {
	return &LocalUpdate{ClientID: 2, Round: 9, NumSamples: 64, Primal: goldenVector(10_000, 21), Dual: goldenVector(777, 22),
		Epsilon: 5, ComputeSec: 0.5, BaseVersion: 8, InCohort: true, TenantID: 1}
}

// TestEncodeVectoredMatchesEncode: the slices of a vectored encode,
// concatenated, are the flat encoding; large blocks are views of the
// message's own vectors (no copy), small ones and the portable path are
// copied; and the encoder itself holds only the bytes around the blocks.
func TestEncodeVectoredMatchesEncode(t *testing.T) {
	msgs := goldenMessages()
	msgs = append(msgs, goldenMessage{name: "big_update", m: bigUpdate()})
	check := func(t *testing.T, wantRefs bool) {
		var flat, vec Encoder
		var segs [][]byte
		for _, g := range msgs {
			want := flat.Encode(g.m)
			segs = vec.EncodeVectored(g.m, segs)
			if got := bytes.Join(segs, nil); !bytes.Equal(got, want) {
				t.Errorf("%s: vectored encoding differs from the flat one", g.name)
			}
			if vec.Len() != len(want) {
				t.Errorf("%s: Len() = %d after a vectored encode of %d bytes", g.name, vec.Len(), len(want))
			}
		}
		u := bigUpdate()
		segs = vec.EncodeVectored(u, segs)
		aliased := false
		for _, s := range segs {
			if len(s) == 8*len(u.Primal) && &s[0] == &float64Bytes(u.Primal)[0] {
				aliased = true
			}
		}
		if aliased != wantRefs {
			t.Errorf("primal sent by reference = %v, want %v", aliased, wantRefs)
		}
		if wantRefs && len(vec.Bytes()) > 8*len(u.Dual)+256 {
			t.Errorf("encoder holds %d bytes of a message whose large block is referenced", len(vec.Bytes()))
		}
	}
	t.Run("bulk", func(t *testing.T) { check(t, hostLittleEndian) })
	t.Run("portable", func(t *testing.T) { forcePortable(t, func() { check(t, false) }) })
}

// TestStreamDecodeMatchesBufferDecode: decoding a message while its
// transport is still delivering it — a byte at a time, or in whatever
// pieces the reader hands out — yields exactly what decoding the buffered
// bytes yields, consumes exactly the message, and reports a short stream
// as the stream's error rather than as a malformed message.
func TestStreamDecodeMatchesBufferDecode(t *testing.T) {
	golden := readGolden(t)
	type fixture struct {
		name  string
		bytes []byte
		fresh func() interface {
			Marshal(*Encoder)
			Unmarshal(*Decoder) error
		}
	}
	var fixtures []fixture
	for _, g := range goldenMessages() {
		fixtures = append(fixtures, fixture{g.name, golden[g.name], g.fresh})
	}
	var e Encoder
	big := append([]byte(nil), e.Encode(bigUpdate())...)
	fixtures = append(fixtures, fixture{"big_update", big, goldenMessages()[5].fresh})

	check := func(t *testing.T) {
		var d Decoder // kept across messages, as a connection keeps it
		var enc Encoder
		for _, f := range fixtures {
			for _, reader := range []struct {
				name string
				wrap func(io.Reader) io.Reader
			}{
				{"whole", func(r io.Reader) io.Reader { return r }},
				{"one-byte", iotest.OneByteReader},
				{"half", iotest.HalfReader},
			} {
				// A trailing byte stands for the next frame: it must be left alone.
				src := bytes.NewReader(append(append([]byte(nil), f.bytes...), 0xee))
				d.ResetStream(reader.wrap(src), len(f.bytes))
				m := f.fresh()
				if err := m.Unmarshal(&d); err != nil {
					t.Errorf("%s/%s: %v", f.name, reader.name, err)
					continue
				}
				if got := enc.Encode(m); !bytes.Equal(got, f.bytes) {
					t.Errorf("%s/%s: stream decode → encode does not reproduce the bytes", f.name, reader.name)
				}
				if src.Len() != 1 {
					t.Errorf("%s/%s: decoding left %d bytes on the stream, want the next frame's 1", f.name, reader.name, src.Len())
				}
			}
			if len(f.bytes) < 2 {
				continue
			}
			// The transport dies mid-message.
			d.ResetStream(bytes.NewReader(f.bytes[:len(f.bytes)/2]), len(f.bytes))
			if err := f.fresh().Unmarshal(&d); err == nil || d.ReadErr() == nil {
				t.Errorf("%s: half a message decoded with err %v, stream error %v", f.name, err, d.ReadErr())
			}
		}
		// A malformed message is not the stream's fault, and Drain resyncs.
		bad := append([]byte{0x07}, big[1:]...) // wire type 7 does not exist
		src := bytes.NewReader(append(bad, 0xee))
		d.ResetStream(src, len(bad))
		if err := (&LocalUpdate{}).Unmarshal(&d); !errors.Is(err, ErrBadTag) || d.ReadErr() != nil {
			t.Fatalf("malformed stream: err %v, stream error %v", err, d.ReadErr())
		}
		if err := d.Drain(); err != nil || src.Len() != 1 {
			t.Fatalf("Drain: err %v, %d bytes left, want the next frame's 1", err, src.Len())
		}
	}
	t.Run("bulk", check)
	t.Run("portable", func(t *testing.T) { forcePortable(t, func() { check(t) }) })
}

// TestStreamDecodeKeepsItsWindowSmall: a dense model streams past the
// decoder, and so do a 1 MB quantize:8 upload and a 1 MB float16 model
// (their nested payloads are decoded through the window, their codes read
// past it): the window never grows beyond StreamWindow.
func TestStreamDecodeKeepsItsWindowSmall(t *testing.T) {
	const dim = 1 << 20
	quant := &LocalUpdate{ClientID: 1, Round: 2, NumSamples: 3, Epsilon: 5, InCohort: true,
		PrimalP: &Payload{Enc: EncQuant, Dim: dim, Scale: 0.5, Offset: -1, Bits: 8, Codes: goldenCodes(dim, 3)}}
	f16 := &GlobalModel{Round: 4, Version: 3,
		WeightsP: &Payload{Enc: EncFloat16, Dim: dim / 2, Codes: goldenCodes(dim, 4)}}
	for _, c := range []struct {
		name   string
		m      Marshaler
		decode func(*Decoder) error
	}{
		{"dense update", bigUpdate(), (&LocalUpdate{}).Unmarshal},
		{"quantize:8 update", quant, (&LocalUpdate{}).Unmarshal},
		{"f16 model", f16, (&GlobalModel{}).Unmarshal},
		{"f16 model, receive form", f16, (&GlobalModel{}).UnmarshalDense},
	} {
		var e Encoder
		b := e.Encode(c.m)
		var d Decoder
		d.ResetStream(bytes.NewReader(b), len(b))
		if err := c.decode(&d); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cap(d.own) > StreamWindow {
			t.Errorf("%s: decoder buffered %d bytes of a %d-byte message, window is %d", c.name, cap(d.own), len(b), StreamWindow)
		}
	}
}
