package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range values {
		e := NewEncoder(nil)
		e.Uint64(1, v)
		d := NewDecoder(e.Bytes())
		f, w, err := d.Tag()
		if err != nil || f != 1 || w != typeVarint {
			t.Fatalf("tag decode failed: %v %d %d", err, f, w)
		}
		got, err := d.Uint64()
		if err != nil || got != v {
			t.Fatalf("varint %d round-tripped to %d (%v)", v, got, err)
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	values := []int64{0, -1, 1, -64, 63, math.MinInt64, math.MaxInt64}
	for _, v := range values {
		e := NewEncoder(nil)
		e.Int64(2, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			t.Fatal(err)
		}
		got, err := d.Int64()
		if err != nil || got != v {
			t.Fatalf("int64 %d round-tripped to %d (%v)", v, got, err)
		}
	}
}

func TestZigzagSmallMagnitudeIsSmall(t *testing.T) {
	// Zigzag exists so small negative numbers stay short.
	e := NewEncoder(nil)
	e.Int64(1, -1)
	if e.Len() != 2 { // 1 tag byte + 1 payload byte
		t.Fatalf("zigzag(-1) used %d bytes, want 2", e.Len())
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	values := []float64{0, -0.0, 1.5, math.Pi, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, v := range values {
		e := NewEncoder(nil)
		e.Float64(3, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			t.Fatal(err)
		}
		got, err := d.Float64()
		if err != nil || got != v {
			t.Fatalf("float %v round-tripped to %v (%v)", v, got, err)
		}
	}
}

func TestFloat64NaNRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Float64(1, math.NaN())
	d := NewDecoder(e.Bytes())
	if _, _, err := d.Tag(); err != nil {
		t.Fatal(err)
	}
	got, err := d.Float64()
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN did not round-trip: %v %v", got, err)
	}
}

func TestStringAndBytesRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.String(1, "héllo wørld")
	e.BytesField(2, []byte{0, 1, 2, 255})
	d := NewDecoder(e.Bytes())
	if _, _, err := d.Tag(); err != nil {
		t.Fatal(err)
	}
	s, err := d.String()
	if err != nil || s != "héllo wørld" {
		t.Fatalf("string round trip: %q %v", s, err)
	}
	if _, _, err := d.Tag(); err != nil {
		t.Fatal(err)
	}
	b, err := d.BytesField()
	if err != nil || len(b) != 4 || b[3] != 255 {
		t.Fatalf("bytes round trip: %v %v", b, err)
	}
}

func TestDoublesRoundTripQuick(t *testing.T) {
	f := func(v []float64) bool {
		e := NewEncoder(nil)
		e.Doubles(1, v)
		d := NewDecoder(e.Bytes())
		if _, _, err := d.Tag(); err != nil {
			return false
		}
		got, err := d.Doubles()
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			// Compare bit patterns so NaN round-trips count as equal.
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedInputErrors(t *testing.T) {
	e := NewEncoder(nil)
	e.Doubles(1, []float64{1, 2, 3})
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_, _, err := d.Tag()
		if err != nil {
			continue // tag itself truncated: acceptable error
		}
		if _, err := d.Doubles(); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestVarintOverflowDetected(t *testing.T) {
	// 11 bytes of continuation = overflow.
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	d := NewDecoder(buf)
	if _, err := d.Uint64(); err == nil {
		t.Fatal("varint overflow not detected")
	}
}

func TestBadTagDetected(t *testing.T) {
	// Field number 0 is invalid.
	d := NewDecoder([]byte{0x00})
	if _, _, err := d.Tag(); err == nil {
		t.Fatal("zero field tag accepted")
	}
	// Wire type 7 is invalid.
	d = NewDecoder([]byte{0x0f})
	if _, _, err := d.Tag(); err == nil {
		t.Fatal("wire type 7 accepted")
	}
}

func TestSkipUnknownFields(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(9, 42)           // unknown varint
	e.Float64(10, 3.5)        // unknown fixed64
	e.String(11, "ignore me") // unknown bytes
	e.Uint64(1, 7)            // known field
	var m Join
	// Join only knows fields 1 and 2; the rest must be skipped silently.
	if err := m.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("unknown field skipping failed: %v", err)
	}
	if m.ClientID != 7 {
		t.Fatalf("ClientID = %d, want 7", m.ClientID)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	in := Join{ClientID: 12, Name: "hospital-a"}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out Join
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestJoinAckRoundTrip(t *testing.T) {
	in := JoinAck{NumClients: 203, Rounds: 50, ModelSize: 123456}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out JoinAck
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

// TestJoinAckPlanRoundTrip: the federation plan rides the JoinAck as a
// nested message, every field survives, and an ack without a plan is byte
// for byte the three-integer encoding older peers produce and expect.
func TestJoinAckPlanRoundTrip(t *testing.T) {
	in := JoinAck{NumClients: 3, Rounds: 5, ModelSize: 51450, Plan: Plan{
		Algorithm: "fedavg", Rho: 2.5, Zeta: 14, Seed: 1 << 40, Pipeline: "clip:1,laplace:5,quantize:8",
		Chunk: 4096, Subset: 0.25, Train: 960, Test: 240}}
	var e Encoder
	var out JoinAck
	if err := out.Unmarshal(NewDecoder(e.Encode(&in))); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	// Each plan field alone, so an omitted-when-zero neighbor cannot mask
	// a field number mix-up.
	for _, p := range []Plan{{Algorithm: "iiadmm"}, {Rho: 2}, {Zeta: 14}, {Seed: 9}, {Pipeline: "f16"},
		{Chunk: 7}, {Subset: 0.5}, {Train: 11}, {Test: 13}} {
		one := JoinAck{Plan: p}
		var got JoinAck
		if err := got.Unmarshal(NewDecoder(e.Encode(&one))); err != nil || got != one {
			t.Fatalf("plan %+v round-tripped to %+v (err %v)", p, got.Plan, err)
		}
	}
	bare := JoinAck{NumClients: 4, Rounds: 17, ModelSize: 1017610}
	legacy := NewEncoder(nil)
	legacy.Uint64(1, 4)
	legacy.Uint64(2, 17)
	legacy.Uint64(3, 1017610)
	if got := e.Encode(&bare); !bytes.Equal(got, legacy.Bytes()) {
		t.Fatalf("plan-less ack encodes to %x, pre-plan encoding is %x", got, legacy.Bytes())
	}
	// A pre-plan peer knows fields 1-3 and skips the rest.
	d := NewDecoder(e.Encode(&in))
	var seen []uint64
	for d.More() {
		f, w, err := d.Tag()
		if err != nil {
			t.Fatal(err)
		}
		if f > 3 {
			if err := d.Skip(w); err != nil {
				t.Fatalf("pre-plan peer cannot skip field %d: %v", f, err)
			}
			continue
		}
		v, err := d.Uint64()
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, v)
	}
	if len(seen) != 3 || seen[0] != 3 || seen[1] != 5 || seen[2] != 51450 {
		t.Fatalf("pre-plan peer read %v from an ack with a plan", seen)
	}
}

func TestGlobalModelRoundTrip(t *testing.T) {
	in := GlobalModel{Round: 3, Weights: []float64{1, -2, math.Pi}, Final: true}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out GlobalModel
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out.Round != 3 || !out.Final || len(out.Weights) != 3 || out.Weights[2] != math.Pi {
		t.Fatalf("round trip %+v", out)
	}
}

func TestLocalUpdateRoundTrip(t *testing.T) {
	in := LocalUpdate{
		ClientID:   5,
		Round:      17,
		NumSamples: 9000,
		Primal:     []float64{0.5, -0.25},
		Dual:       []float64{1, 2},
		Epsilon:    10,
		ComputeSec: 4.24,
	}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out LocalUpdate
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out.ClientID != 5 || out.Round != 17 || out.NumSamples != 9000 ||
		len(out.Primal) != 2 || len(out.Dual) != 2 || out.Epsilon != 10 || out.ComputeSec != 4.24 {
		t.Fatalf("round trip %+v", out)
	}
}

// TestLocalUpdateDualOmissionHalvesPayload verifies the paper's central
// communication claim at the wire level: a LocalUpdate without dual
// information (IIADMM, FedAvg) is about half the size of one with it
// (ICEADMM), for large models.
func TestLocalUpdateDualOmissionHalvesPayload(t *testing.T) {
	m := 10000
	primal := make([]float64, m)
	dual := make([]float64, m)
	withDual := LocalUpdate{Primal: primal, Dual: dual}
	withoutDual := LocalUpdate{Primal: primal}
	e1 := NewEncoder(nil)
	withDual.Marshal(e1)
	e2 := NewEncoder(nil)
	withoutDual.Marshal(e2)
	ratio := float64(e1.Len()) / float64(e2.Len())
	if ratio < 1.95 || ratio > 2.05 {
		t.Fatalf("dual/no-dual size ratio = %v, want ~2", ratio)
	}
}

func TestLocalUpdateEmptyDualStaysEmpty(t *testing.T) {
	in := LocalUpdate{Primal: []float64{1}, Epsilon: math.Inf(1)}
	e := NewEncoder(nil)
	in.Marshal(e)
	var out LocalUpdate
	if err := out.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(out.Dual) != 0 {
		t.Fatalf("empty dual decoded as %v", out.Dual)
	}
	if !math.IsInf(out.Epsilon, 1) {
		t.Fatalf("epsilon inf lost: %v", out.Epsilon)
	}
}

func TestKindString(t *testing.T) {
	if KindJoin.String() != "Join" || KindShutdown.String() != "Shutdown" {
		t.Fatal("kind names")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind name")
	}
}

func TestEncoderReuse(t *testing.T) {
	e := NewEncoder(make([]byte, 0, 64))
	e.Uint64(1, 5)
	first := len(e.Bytes())
	e2 := NewEncoder(e.Bytes())
	e2.Uint64(1, 5)
	if len(e2.Bytes()) != first {
		t.Fatal("encoder reuse did not reset buffer")
	}
}

func BenchmarkMarshalLocalUpdate(b *testing.B) {
	// Model of ~100k parameters, the regime of the paper's CNN.
	m := LocalUpdate{Primal: make([]float64, 100000)}
	e := NewEncoder(make([]byte, 0, 900000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = NewEncoder(e.Bytes())
		m.Marshal(e)
	}
	b.SetBytes(int64(e.Len()))
}

func BenchmarkUnmarshalLocalUpdate(b *testing.B) {
	m := LocalUpdate{Primal: make([]float64, 100000)}
	e := NewEncoder(nil)
	m.Marshal(e)
	buf := e.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out LocalUpdate
		if err := out.Unmarshal(NewDecoder(buf)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// TestDecodeRefusesOutOfRangeFields: every uint32 field of the schema
// refuses a varint of 2^32 or more instead of truncating it, while the
// largest uint32 still decodes; a LocalUpdate refuses a NaN ε. These
// are the checks that keep a hostile frame from aliasing another
// client, round or tenant on every transport.
func TestDecodeRefusesOutOfRangeFields(t *testing.T) {
	type msg = interface{ Unmarshal(*Decoder) error }
	rows := []struct {
		name  string
		field int
		fresh func() msg
	}{
		{"Join.ClientID", 1, func() msg { return &Join{} }},
		{"Join.TenantID", 4, func() msg { return &Join{} }},
		{"Plan.Chunk", 6, func() msg { return &Plan{} }},
		{"Plan.Train", 8, func() msg { return &Plan{} }},
		{"Plan.Test", 9, func() msg { return &Plan{} }},
		{"JoinAck.NumClients", 1, func() msg { return &JoinAck{} }},
		{"JoinAck.Rounds", 2, func() msg { return &JoinAck{} }},
		{"GlobalModel.Round", 1, func() msg { return &GlobalModel{} }},
		{"GlobalModel.CohortSize", 6, func() msg { return &GlobalModel{} }},
		{"LocalUpdate.ClientID", 1, func() msg { return &LocalUpdate{} }},
		{"LocalUpdate.Round", 2, func() msg { return &LocalUpdate{} }},
		{"LocalUpdate.RejoinRound", 12, func() msg { return &LocalUpdate{} }},
		{"LocalUpdate.TenantID", 13, func() msg { return &LocalUpdate{} }},
		{"ModelChunk.ClientID", 1, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Round", 2, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Index", 4, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Count", 5, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Lo", 6, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Hi", 7, func() msg { return &ModelChunk{} }},
		{"ModelChunk.Dim", 8, func() msg { return &ModelChunk{} }},
		{"ChunkAck.ClientID", 1, func() msg { return &ChunkAck{} }},
		{"ChunkAck.Round", 2, func() msg { return &ChunkAck{} }},
		{"ChunkAck.Index", 3, func() msg { return &ChunkAck{} }},
		{"JournalRecord.Round", 3, func() msg { return &JournalRecord{} }},
		{"JournalRecord.ClientID", 6, func() msg { return &JournalRecord{} }},
		{"JournalRecord.Param", 12, func() msg { return &JournalRecord{} }},
		{"JournalCheckpoint.NextRound", 2, func() msg { return &JournalCheckpoint{} }},
	}
	overflows := func(err error) bool { return err != nil && strings.Contains(err.Error(), "overflows a uint32") }
	for _, r := range rows {
		for _, v := range []uint64{1 << 32, math.MaxUint64} {
			e := NewEncoder(nil)
			e.Uint64(r.field, v)
			if err := r.fresh().Unmarshal(NewDecoder(e.Bytes())); !overflows(err) {
				t.Errorf("%s = %d: got %v, want a uint32 overflow error", r.name, v, err)
			}
		}
		// Other checks (a chunk's range, a journal record's op) may still
		// refuse this message; the width check must not.
		e := NewEncoder(nil)
		e.Uint64(r.field, math.MaxUint32)
		if err := r.fresh().Unmarshal(NewDecoder(e.Bytes())); overflows(err) {
			t.Errorf("%s = MaxUint32 refused: %v", r.name, err)
		}
	}
	e := NewEncoder(nil)
	(&LocalUpdate{Primal: []float64{1}, Epsilon: math.NaN()}).Marshal(e)
	if err := new(LocalUpdate).Unmarshal(NewDecoder(e.Bytes())); err == nil || !strings.Contains(err.Error(), "NaN epsilon") {
		t.Errorf("NaN epsilon: got %v, want a refusal", err)
	}
}
