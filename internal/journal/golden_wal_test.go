package journal

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
)

// The golden fixture pins the journal's bytes on disk across rewrites of
// how they are produced: testdata/golden_wal.txt holds the SHA-256 of
// wal.log and checkpoint.bin at three points of one fixed sequence of
// records. It was computed at the commit BEFORE Append and Checkpoint
// wrote straight from the caller's vectors. This file uses only the API
// that commit already had, so it can be dropped into that older tree to
// regenerate the fixture:
//
//	JOURNAL_GOLDEN_WRITE=1 go test ./internal/journal -run TestWriteGoldenWAL
//
// Regenerating from the current tree would only pin the writer to itself.

const goldenWALFile = "testdata/golden_wal.txt"

// goldenDims straddle the 4 KiB block the vectored encoder references
// instead of copying (1 and 4097 doubles) and end at the wide_* workloads'
// model.
var goldenDims = []int{1, 4097, 1017610}

// goldenVector fills a vector of dim values from its own generator, with
// the values a byte-exact writer must not launder pinned near the front:
// NaNs with payloads (quiet and signalling, both signs), -0, subnormals and
// infinities.
func goldenVector(dim int, salt uint64) []float64 {
	v := make([]float64, dim)
	s := 0x9e3779b97f4a7c15 * (salt + 1)
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = (float64(s>>11)/(1<<53) - 0.5) * 0.16
	}
	special := []float64{
		math.Float64frombits(0x7ff8000000000123), // quiet NaN with a payload
		math.Float64frombits(0xfff0000000000001), // negative signalling NaN
		math.Copysign(0, -1),
		math.Float64frombits(1),                  // smallest subnormal
		math.Float64frombits(0x800fffffffffffff), // largest negative subnormal
		math.Inf(1),
		math.Inf(-1),
	}
	for i, x := range special {
		if j := 2*i + int(salt%2); j < dim {
			v[j] = x
		}
	}
	return v
}

// goldenWALLines runs the fixed sequence on a fresh journal in dir: a
// round start, one admit per golden dim, a ledger op, a commit, a
// checkpoint, one further admit. It returns one line per file state:
// name, size and SHA-256.
func goldenWALLines(t *testing.T, dir string) []string {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.NoSync = true
	model := len(goldenDims) - 1
	weights := goldenVector(goldenDims[model], 99)
	recs := []*wire.JournalRecord{
		{Op: wire.JournalRoundStart, Round: 1, Version: 3, Cohort: []uint32{0, 1, 2}},
	}
	for i, dim := range goldenDims {
		recs = append(recs, &wire.JournalRecord{Op: wire.JournalAdmit, Round: 1, ClientID: uint32(i),
			NumSamples: uint64(60 + i), BaseVersion: 3, Primal: goldenVector(dim, uint64(i))})
	}
	recs = append(recs,
		&wire.JournalRecord{Op: wire.JournalLedger, LedgerOp: wire.LedgerStrike, ClientID: 1, Round: 1, Param: 2},
		&wire.JournalRecord{Op: wire.JournalCommit, Round: 1, Version: 4, Weights: weights},
	)
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	state := func(name, file string) {
		raw, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %d %x", name, len(raw), sha256.Sum256(raw)))
	}
	state("wal_before_checkpoint", walName)
	if err := j.Checkpoint(&wire.JournalCheckpoint{
		NextRound: 2, Version: 4, Weights: weights,
		DepartedUntil: []uint32{0, 0, ^uint32(0)}, BenchedUntil: []uint32{0, 2, 0},
		Strikes: []uint32{0, 1, 0}, AwaitRejoin: []uint32{0, 0, 1},
		Rejoined: 1, TimedOut: 2, Inflight: 3,
	}); err != nil {
		t.Fatal(err)
	}
	state("checkpoint", checkpointName)
	if err := j.Append(&wire.JournalRecord{Op: wire.JournalAdmit, Round: 2, ClientID: 2,
		NumSamples: 61, BaseVersion: 4, Primal: goldenVector(goldenDims[model], 7)}); err != nil {
		t.Fatal(err)
	}
	state("wal_after_checkpoint", walName)
	return lines
}

func TestWriteGoldenWAL(t *testing.T) {
	if os.Getenv("JOURNAL_GOLDEN_WRITE") == "" {
		t.Skip("set JOURNAL_GOLDEN_WRITE=1 (in the parent tree) to regenerate " + goldenWALFile)
	}
	lines := goldenWALLines(t, t.TempDir())
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenWALFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenWAL: the WAL and checkpoint this tree writes for the fixed
// sequence are, byte for byte, what the parent tree wrote.
func TestGoldenWAL(t *testing.T) {
	raw, err := os.ReadFile(goldenWALFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenWALLines(t, t.TempDir())
	if len(got) != len(want) {
		t.Fatalf("fixture has %d lines, this tree produces %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("journal bytes differ from the parent tree:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}
