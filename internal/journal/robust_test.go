package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
	"repro/internal/wire"
)

var errInjected = errors.New("injected I/O failure")

// failingWAL is a WAL whose writes fail once budget bytes have gone
// through: the write that crosses the budget lands its first bytes and
// then fails, as ENOSPC or EIO partway through a frame does. With
// failSync the frame is written whole and the fsync fails; with
// failTruncate the journal cannot cut the partial frame back out.
type failingWAL struct {
	*os.File
	budget       int
	failSync     bool
	failTruncate bool
}

func (f *failingWAL) Write(p []byte) (int, error) {
	if len(p) <= f.budget {
		f.budget -= len(p)
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.budget])
	f.budget = 0
	return n, errInjected
}

func (f *failingWAL) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

func (f *failingWAL) Truncate(size int64) error {
	if f.failTruncate {
		return fmt.Errorf("truncate: %w", errInjected)
	}
	return f.File.Truncate(size)
}

// encoded is a record's exact bytes, the identity the tests compare
// replayed records by (NaN payloads included).
func encoded(r *wire.JournalRecord) string {
	var e wire.Encoder
	return string(e.Encode(r))
}

func sameRecords(t *testing.T, what string, got, want []*wire.JournalRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if encoded(got[i]) != encoded(want[i]) {
			t.Fatalf("%s: record %d (seq %d) differs from what was appended", what, i, want[i].Seq)
		}
	}
}

// vectorRecord is an admit whose primal (512 doubles: exactly the 4 KiB
// the vectored encoder references rather than copies) makes its frame a
// header, a few encoded bytes and a view of the caller's vector.
func vectorRecord(round uint32) *wire.JournalRecord {
	return &wire.JournalRecord{Op: wire.JournalAdmit, Round: round, ClientID: 2, NumSamples: 9,
		Primal: goldenVector(512, uint64(round))}
}

// TestFailedAppendLeavesNoPartialFrame: a write that fails after k bytes,
// for every k across one frame (and an fsync that fails after the whole
// frame), leaves the WAL as it was — the next Append lands where the
// failed one started and everything appended survives a reopen with no
// torn tail. At the parent the partial frame stayed, and replay truncated
// the later, acknowledged record as part of a torn tail.
func TestFailedAppendLeavesNoPartialFrame(t *testing.T) {
	first := rec(wire.JournalRoundStart, 1)
	failed := vectorRecord(1)
	var e wire.Encoder
	frameLen := 8 + len(e.Encode(failed))
	root := t.TempDir()
	for k := 0; k <= frameLen; k++ {
		dir := filepath.Join(root, fmt.Sprint(k))
		j := mustOpen(t, dir)
		j.NoSync = k < frameLen
		if err := j.Append(first); err != nil {
			t.Fatal(err)
		}
		file := j.wal.(*os.File)
		j.wal = &failingWAL{File: file, budget: k, failSync: k == frameLen}
		if err := j.Append(failed); !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: append through a failing write returned %v", k, err)
		}
		j.wal = file
		later := rec(wire.JournalCommit, 1)
		if err := j.Append(later); err != nil {
			t.Fatalf("k=%d: append after a rolled-back failure: %v", k, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2 := mustOpen(t, dir)
		got := j2.Recovered()
		if got.TornTail {
			t.Fatalf("k=%d: the failed frame was left in the WAL", k)
		}
		sameRecords(t, fmt.Sprintf("k=%d", k), got.Records, []*wire.JournalRecord{first, later})
		j2.Close()
		os.RemoveAll(dir)
	}
}

// TestUnrecoverableAppendFailureSticks: when the partial frame cannot be
// cut back out, the journal takes no further writes — every later Append
// and Checkpoint returns the first error — so nothing is ever reported
// durable behind a frame replay would treat as a torn tail.
func TestUnrecoverableAppendFailureSticks(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	j.NoSync = true
	first := rec(wire.JournalRoundStart, 1)
	if err := j.Append(first); err != nil {
		t.Fatal(err)
	}
	file := j.wal.(*os.File)
	j.wal = &failingWAL{File: file, budget: 20, failTruncate: true}
	err := j.Append(vectorRecord(1))
	if !errors.Is(err, errInjected) {
		t.Fatalf("append through a failing write returned %v", err)
	}
	j.wal = file
	if got := j.Append(rec(wire.JournalCommit, 1)); got != err {
		t.Fatalf("append after an unrecoverable failure returned %v, want the first error %v", got, err)
	}
	if got := j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2, Weights: []float64{1}}); got != err {
		t.Fatalf("checkpoint after an unrecoverable failure returned %v, want the first error %v", got, err)
	}
	if j.Seq() != 1 {
		t.Fatalf("seq %d after one successful append", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir)
	defer j2.Close()
	if got := j2.Recovered(); !got.TornTail {
		t.Fatal("the partial frame was not reported as a torn tail")
	}
	sameRecords(t, "reopen", j2.Recovered().Records, []*wire.JournalRecord{first})
}

// TestTornHugeHeaderIsNotAnAllocation: a WAL whose last header (the one a
// crash garbled) declares 1 GiB opens as a torn tail with the records
// before it intact, and the open allocates far less than what the header
// asked for.
func TestTornHugeHeaderIsNotAnAllocation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	dir := t.TempDir()
	j := mustOpen(t, dir)
	want := []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), rec(wire.JournalAdmit, 1), rec(wire.JournalCommit, 1)}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<30)
	binary.BigEndian.PutUint32(hdr[4:], 0xdeadbeef)
	if _, err := f.Write(append(hdr[:], "a few bytes of the frame"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var j2 *Journal
	_, allocated := testutil.AllocsPer(1, func() {
		if j2, err = Open(dir); err != nil {
			t.Fatal(err)
		}
	})
	defer j2.Close()
	t.Logf("open allocated %.0f bytes", allocated)
	if allocated >= 1<<20 {
		t.Fatalf("opening a WAL with a 1 GiB torn header allocated %.0f bytes; the gate is 1 MiB", allocated)
	}
	got := j2.Recovered()
	if !got.TornTail {
		t.Fatal("a header declaring more than the file holds was not a torn tail")
	}
	sameRecords(t, "reopen", got.Records, want)
}

// TestTornAtEverySegmentBoundary cuts the last frame at every boundary
// between the pieces Append writes it in — header, encoded bytes, each
// referenced vector — and one byte either side. Every cut opens as a torn
// tail with the records before it exact, and an append after the reopen
// replays.
func TestTornAtEverySegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	j.NoSync = true
	earlier := []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), vectorRecord(1), rec(wire.JournalCommit, 1)}
	for _, r := range earlier {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	frameStart := j.end
	// Two referenced blocks with encoded bytes between and after them: the
	// codec does not tie fields to ops, so one record can carry every
	// kind of segment.
	last := &wire.JournalRecord{Op: wire.JournalCommit, Round: 2, Version: 2,
		Primal: goldenVector(600, 1), Weights: goldenVector(700, 2), Param: 3}
	if err := j.Append(last); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Encoder
	segs := e.EncodeVectored(last, nil)
	if len(segs) != 5 {
		t.Fatalf("the last record encodes as %d segments; the test wants 5 (bytes, block, bytes, block, bytes)", len(segs))
	}
	frameLen := int64(len(whole)) - frameStart
	boundaries := []int64{0, 8}
	for _, s := range segs {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+int64(len(s)))
	}
	if boundaries[len(boundaries)-1] != frameLen {
		t.Fatalf("segments sum to %d bytes, the frame on disk is %d", boundaries[len(boundaries)-1], frameLen)
	}
	cuts := map[int64]bool{}
	for _, b := range boundaries {
		for _, c := range []int64{b - 1, b, b + 1} {
			if c > 0 && c < frameLen {
				cuts[c] = true
			}
		}
	}
	for c := range cuts {
		cdir := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, walName), whole[:frameStart+c], 0o644); err != nil {
			t.Fatal(err)
		}
		j := mustOpen(t, cdir)
		got := j.Recovered()
		if !got.TornTail {
			t.Fatalf("cut %d of %d: not reported as a torn tail", c, frameLen)
		}
		sameRecords(t, fmt.Sprintf("cut %d", c), got.Records, earlier)
		after := rec(wire.JournalAdmit, 2)
		if err := j.Append(after); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j = mustOpen(t, cdir)
		if j.Recovered().TornTail {
			t.Fatalf("cut %d: the append after the reopen left a torn tail", c)
		}
		sameRecords(t, fmt.Sprintf("cut %d, appended", c), j.Recovered().Records, append(earlier[:len(earlier):len(earlier)], after))
		j.Close()
	}
}

// FuzzOpenWAL: for arbitrary wal.log bytes, Open never panics, fails
// only with ErrCorrupt, allocates in proportion to the file, and leaves a
// WAL that reopens to the same records with no torn tail.
func FuzzOpenWAL(f *testing.F) {
	seed := func(recs ...*wire.JournalRecord) []byte {
		dir := f.TempDir()
		j, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		j.Close()
		raw, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := seed(rec(wire.JournalRoundStart, 1), vectorRecord(1),
		&wire.JournalRecord{Op: wire.JournalLedger, LedgerOp: wire.LedgerDepart, ClientID: 1, Param: 4}, rec(wire.JournalCommit, 1))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(bytes.Clone(valid), 0x40, 0, 0, 0, 1, 2, 3, 4))
	flipped := bytes.Clone(valid)
	flipped[12] ^= 0x01
	f.Add(flipped)
	dir := f.TempDir() // one per worker process; inputs run one at a time
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, walName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var j *Journal
		var err error
		_, allocated := testutil.AllocsPer(1, func() { j, err = Open(dir) })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with %v, not ErrCorrupt", err)
			}
			return
		}
		got := j.Recovered()
		j.Close()
		if bound := float64(64<<10 + 32*len(raw)); !testutil.RaceEnabled && allocated > bound {
			t.Fatalf("opening a %d-byte WAL allocated %.0f bytes; the bound is %.0f", len(raw), allocated, bound)
		}
		j = mustOpen(t, dir)
		defer j.Close()
		if j.Recovered().TornTail {
			t.Fatal("the WAL Open left behind still has a torn tail")
		}
		sameRecords(t, "reopen", j.Recovered().Records, got.Records)
	})
}
