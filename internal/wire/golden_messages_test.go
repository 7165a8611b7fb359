package wire

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// The golden fixture pins the wire format across codec rewrites:
// testdata/golden.txt holds the bytes every message kind below encoded to
// at the commit BEFORE the bulk codec landed. This file uses only the
// pre-existing API (NewEncoder + Marshal) so it can be dropped into that
// older tree to regenerate the fixture:
//
//	WIRE_GOLDEN_WRITE=1 go test ./internal/wire -run TestWriteGolden
//
// Regenerating from the current tree would only pin the codec to itself.

const goldenFile = "testdata/golden.txt"

// goldenVector is a deterministic float64 vector seeded with the values a
// bit-exact codec must not disturb: quiet and signalling NaNs with
// payloads, both zeros, subnormals, infinities and the extremes.
func goldenVector(n int, salt uint64) []float64 {
	special := []uint64{
		0x7ff8000000000001, // quiet NaN, payload 1
		0xfff4000000abcdef, // negative signalling-range NaN with payload
		0x7ff0000000000001, // signalling NaN, smallest payload
		0x8000000000000000, // -0
		0x0000000000000000, // +0
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest negative subnormal
		0x0010000000000000, // smallest normal
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7fefffffffffffff, // MaxFloat64
	}
	out := make([]float64, n)
	x := salt*0x9e3779b97f4a7c15 + 1
	for i := range out {
		if i < len(special) {
			out[i] = math.Float64frombits(special[i])
			continue
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(int64(x>>11)-(1<<52)) / (1 << 40)
	}
	return out
}

func goldenCodes(n int, salt byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*31 + salt
	}
	return out
}

type goldenMessage struct {
	name string
	m    interface{ Marshal(*Encoder) }
	// fresh returns an empty message of the same type to decode into.
	fresh func() interface {
		Marshal(*Encoder)
		Unmarshal(*Decoder) error
	}
}

func goldenMessages() []goldenMessage {
	type msg = interface {
		Marshal(*Encoder)
		Unmarshal(*Decoder) error
	}
	global := func() msg { return &GlobalModel{} }
	update := func() msg { return &LocalUpdate{} }
	chunk := func() msg { return &ModelChunk{} }
	const dim = 37
	return []goldenMessage{
		{"join", &Join{ClientID: 3, Name: "golden-client", Resume: true, TenantID: 2}, func() msg { return &Join{} }},
		{"join_ack", &JoinAck{NumClients: 4, Rounds: 17, ModelSize: 1017610}, func() msg { return &JoinAck{} }},
		{"global_dense", &GlobalModel{Round: 9, Weights: goldenVector(dim, 1), Rho: 0.25, Version: 8, CohortSize: 4}, global},
		{"global_f16", &GlobalModel{Round: 9, Version: 8, CohortSize: 4,
			WeightsP: &Payload{Enc: EncFloat16, Dim: dim, Codes: goldenCodes(2*dim, 7)}}, global},
		{"global_final", &GlobalModel{Final: true}, global},
		{"update_dense", &LocalUpdate{ClientID: 2, Round: 9, NumSamples: 64, Primal: goldenVector(dim, 2),
			Epsilon: math.Inf(1), ComputeSec: 0.03125, BaseVersion: 8, InCohort: true}, update},
		{"update_dense_dual", &LocalUpdate{ClientID: 1, Round: 3, NumSamples: 960, Primal: goldenVector(dim, 3),
			Dual: goldenVector(dim, 4), Epsilon: 5, ComputeSec: 1.5, InCohort: true, TenantID: 1}, update},
		{"update_quant", &LocalUpdate{ClientID: 3, Round: 9, NumSamples: 64, Epsilon: 5, BaseVersion: 8, InCohort: true,
			PrimalP: &Payload{Enc: EncQuant, Dim: dim, Scale: 0.0078125, Offset: -1, Bits: 8, Codes: goldenCodes(dim, 3)}}, update},
		{"update_quant12", &LocalUpdate{ClientID: 3, Round: 9, NumSamples: 64, Epsilon: 5, InCohort: true,
			PrimalP: &Payload{Enc: EncQuant, Dim: dim, Scale: 0.5, Offset: 2, Bits: 12, Codes: goldenCodes(2*dim, 5)}}, update},
		{"update_f16", &LocalUpdate{ClientID: 0, Round: 9, NumSamples: 64, Epsilon: math.Inf(1), InCohort: true,
			PrimalP: &Payload{Enc: EncFloat16, Dim: dim, Codes: goldenCodes(2*dim, 11)}}, update},
		{"update_sparse", &LocalUpdate{ClientID: 1, Round: 9, NumSamples: 64, Epsilon: math.Inf(1), InCohort: true,
			PrimalP: &Payload{Enc: EncSparse, Dim: 1 << 20, Indices: []uint32{0, 5, 70000, 1<<20 - 1}, Values: goldenVector(4, 5)}}, update},
		{"update_goodbye", Goodbye(2, 9, 12), update},
		{"chunk_dense", &ModelChunk{ClientID: 2, Round: 9, Version: 8, Index: 1, Count: 3, Lo: dim, Hi: 2 * dim, Dim: 100,
			NumSamples: 64, Payload: &Payload{Enc: EncDense, Dim: dim, Dense: goldenVector(dim, 7)}}, chunk},
		{"chunk_f16", &ModelChunk{ClientID: 0, Round: 1, Index: 0, Count: 1, Lo: 0, Hi: dim, Dim: dim,
			NumSamples: 1, Payload: &Payload{Enc: EncFloat16, Dim: dim, Codes: goldenCodes(2*dim, 13)}}, chunk},
		{"chunk_ack", &ChunkAck{ClientID: 2, Round: 9, Index: 62}, func() msg { return &ChunkAck{} }},
		{"journal_admit", &JournalRecord{Seq: 41, Op: JournalAdmit, Round: 9, ClientID: 2, NumSamples: 64, BaseVersion: 8,
			Primal: goldenVector(dim, 9)}, func() msg { return &JournalRecord{} }},
		{"journal_commit", &JournalRecord{Seq: 45, Op: JournalCommit, Round: 9, Version: 9, Weights: goldenVector(dim, 10)},
			func() msg { return &JournalRecord{} }},
		{"journal_round_start", &JournalRecord{Seq: 40, Op: JournalRoundStart, Round: 9, Version: 8, Cohort: []uint32{0, 1, 2, 3}},
			func() msg { return &JournalRecord{} }},
		{"journal_checkpoint", &JournalCheckpoint{Seq: 45, NextRound: 10, Version: 9, Weights: goldenVector(dim, 11),
			DepartedUntil: []uint32{0, 0, 12, 0}, BenchedUntil: []uint32{0, 11, 0, 0}, Strikes: []uint32{0, 1, 0, 0},
			AwaitRejoin: []uint32{0, 0, 1, 0}, Rejoined: 1, TimedOut: 2}, func() msg { return &JournalCheckpoint{} }},
	}
}

// readGolden loads the fixture as name → bytes.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// TestWriteGolden regenerates the fixture; see the file comment for when
// that is legitimate.
func TestWriteGolden(t *testing.T) {
	if os.Getenv("WIRE_GOLDEN_WRITE") == "" {
		t.Skip("set WIRE_GOLDEN_WRITE=1 to regenerate " + goldenFile)
	}
	var sb strings.Builder
	for _, g := range goldenMessages() {
		e := NewEncoder(nil)
		g.m.Marshal(e)
		fmt.Fprintf(&sb, "%s %s\n", g.name, hex.EncodeToString(e.Bytes()))
	}
	if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
