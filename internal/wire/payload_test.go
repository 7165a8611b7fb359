package wire

import (
	"errors"
	"math"
	"testing"

	"repro/internal/f16"
)

// roundTripPayload marshals p as a nested message and decodes it back.
func roundTripPayload(t *testing.T, p *Payload) *Payload {
	t.Helper()
	e := NewEncoder(nil)
	p.Marshal(e)
	var got Payload
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("payload round trip: %v", err)
	}
	return &got
}

func TestPayloadDenseRoundTrip(t *testing.T) {
	p := &Payload{Enc: EncDense, Dim: 3, Dense: []float64{1.5, -2.5, math.Pi}}
	got := roundTripPayload(t, p)
	if got.Enc != EncDense || got.Dim != 3 {
		t.Fatalf("decoded header %v/%d", got.Enc, got.Dim)
	}
	for i := range p.Dense {
		if math.Float64bits(got.Dense[i]) != math.Float64bits(p.Dense[i]) {
			t.Fatalf("value %d changed", i)
		}
	}
}

func TestPayloadSparseRoundTrip(t *testing.T) {
	p := &Payload{Enc: EncSparse, Dim: 10, Indices: []uint32{0, 4, 9}, Values: []float64{-1, 2, 3.5}}
	got := roundTripPayload(t, p)
	if got.Enc != EncSparse || got.Dim != 10 || len(got.Indices) != 3 {
		t.Fatalf("decoded sparse header wrong: %+v", got)
	}
	dense, err := got.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 0, 0, 0, 2, 0, 0, 0, 0, 3.5}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("densify[%d] = %v, want %v", i, dense[i], want[i])
		}
	}
}

func TestPayloadQuantRoundTrip(t *testing.T) {
	p := &Payload{Enc: EncQuant, Dim: 4, Scale: 0.5, Offset: -1, Bits: 8, Codes: []byte{0, 1, 2, 255}}
	got := roundTripPayload(t, p)
	dense, err := got.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -0.5, 0, -1 + 0.5*255}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dequant[%d] = %v, want %v", i, dense[i], want[i])
		}
	}
}

func TestPayloadFloat16RoundTrip(t *testing.T) {
	vals := []float64{0, 1, -0.5, 2048}
	codes := make([]byte, 2*len(vals))
	for i, v := range vals {
		h := f16.FromFloat64(v)
		codes[2*i] = byte(h)
		codes[2*i+1] = byte(h >> 8)
	}
	p := &Payload{Enc: EncFloat16, Dim: uint32(len(vals)), Codes: codes}
	got := roundTripPayload(t, p)
	dense, err := got.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dense[i] != vals[i] {
			t.Fatalf("f16[%d] = %v, want %v", i, dense[i], vals[i])
		}
	}
}

func TestPayloadValidationRejectsMalformed(t *testing.T) {
	bad := []*Payload{
		{Enc: Encoding(9), Dim: 1},                                                 // unknown encoding
		{Enc: EncDense, Dim: 3, Dense: []float64{1}},                               // length mismatch
		{Enc: EncSparse, Dim: 4, Indices: []uint32{1}, Values: []float64{1, 2}},    // parallel arrays differ
		{Enc: EncSparse, Dim: 4, Indices: []uint32{5}, Values: []float64{1}},       // index out of range
		{Enc: EncSparse, Dim: 4, Indices: []uint32{2, 1}, Values: []float64{1, 2}}, // out of order
		{Enc: EncSparse, Dim: 4, Indices: []uint32{1, 1}, Values: []float64{1, 2}}, // duplicate index
		{Enc: EncSparse, Dim: 1, Indices: []uint32{0, 0}, Values: []float64{1, 2}}, // more entries than dim
		{Enc: EncQuant, Dim: 2, Bits: 0, Codes: []byte{1, 2}},                      // bits out of range
		{Enc: EncQuant, Dim: 2, Bits: 17, Codes: []byte{1, 2, 3, 4}},               // bits out of range
		{Enc: EncQuant, Dim: 2, Bits: 8, Codes: []byte{1}},                         // short codes
		{Enc: EncQuant, Dim: 2, Bits: 8, Scale: math.NaN(), Codes: []byte{1, 2}},   // NaN scale
		{Enc: EncQuant, Dim: 2, Bits: 8, Offset: math.Inf(1), Codes: []byte{1, 2}}, // Inf offset
		{Enc: EncQuant, Dim: 2, Bits: 8, Scale: -1, Codes: []byte{1, 2}},           // negative scale
		{Enc: EncFloat16, Dim: 2, Codes: []byte{1, 2, 3}},                          // short codes
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("case %d: want ErrBadPayload, got %v", i, err)
		}
		if _, err := p.Densify(nil); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("case %d: Densify must reject invalid payloads, got %v", i, err)
		}
	}
}

func TestLocalUpdateWithPayloadRoundTrip(t *testing.T) {
	m := &LocalUpdate{
		ClientID: 3, Round: 7, NumSamples: 64,
		Epsilon: 0.5, ComputeSec: 0.25, BaseVersion: 2, InCohort: true,
		PrimalP: &Payload{Enc: EncSparse, Dim: 6, Indices: []uint32{1, 3}, Values: []float64{-2, 4}},
	}
	e := NewEncoder(nil)
	m.Marshal(e)
	var got LocalUpdate
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.PrimalP == nil || got.PrimalP.Enc != EncSparse || got.PrimalP.Dim != 6 {
		t.Fatalf("payload lost in transit: %+v", got.PrimalP)
	}
	if len(got.Primal) != 0 {
		t.Fatal("compressed update must not also carry a dense primal")
	}
	dense, err := got.PrimalP.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dense[1] != -2 || dense[3] != 4 || dense[0] != 0 {
		t.Fatalf("densified primal wrong: %v", dense)
	}
}

func TestGlobalModelWithPayloadRoundTrip(t *testing.T) {
	vals := []float64{1, -1, 0.25}
	codes := make([]byte, 2*len(vals))
	for i, v := range vals {
		h := f16.FromFloat64(v)
		codes[2*i] = byte(h)
		codes[2*i+1] = byte(h >> 8)
	}
	m := &GlobalModel{
		Round: 2, Version: 5, CohortSize: 3,
		WeightsP: &Payload{Enc: EncFloat16, Dim: 3, Codes: codes},
	}
	e := NewEncoder(nil)
	m.Marshal(e)
	var got GlobalModel
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.WeightsP == nil {
		t.Fatal("weights payload lost")
	}
	if len(got.Weights) != 0 {
		t.Fatal("compressed model must not also carry dense weights")
	}
	dense, err := got.WeightsP.Densify(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dense[i] != vals[i] {
			t.Fatalf("weights[%d] = %v, want %v", i, dense[i], vals[i])
		}
	}
}

func TestCompressedUpdateIsSmallerOnTheWire(t *testing.T) {
	dim := 10000
	dense := make([]float64, dim)
	for i := range dense {
		dense[i] = float64(i) * 0.001
	}
	full := &LocalUpdate{ClientID: 1, Round: 1, NumSamples: 10, Primal: dense}
	e := NewEncoder(nil)
	full.Marshal(e)
	denseBytes := e.Len()

	k := dim / 10
	idx := make([]uint32, k)
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		idx[i] = uint32(i * 10)
		vals[i] = dense[i*10]
	}
	sparse := &LocalUpdate{ClientID: 1, Round: 1, NumSamples: 10,
		PrimalP: &Payload{Enc: EncSparse, Dim: uint32(dim), Indices: idx, Values: vals}}
	e2 := NewEncoder(nil)
	sparse.Marshal(e2)
	if ratio := float64(denseBytes) / float64(e2.Len()); ratio < 4 {
		t.Fatalf("top-10%% sparse update only %.2fx smaller than dense (dense %dB, sparse %dB)", ratio, denseBytes, e2.Len())
	}
}
