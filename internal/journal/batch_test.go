package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/wire"
)

// recordingWAL logs every write the journal j makes to its WAL, in order,
// so a test can rebuild the file as a crash at any point would leave it.
type recordingWAL struct {
	*os.File
	j   *Journal
	ops []walWrite
}

type walWrite struct {
	off    int64
	b      []byte
	header bool // a frame's header over its placeholder
}

func (r *recordingWAL) WriteAt(p []byte, off int64) (int, error) {
	r.ops = append(r.ops, walWrite{off: off, b: bytes.Clone(p), header: isHeader(r.j, p)})
	return r.File.WriteAt(p, off)
}

// isHeader reports whether p, a write j makes, is a frame's real header:
// the journal writes every header from its one header buffer.
func isHeader(j *Journal, p []byte) bool {
	return len(p) == len(j.hdr) && &p[0] == &j.hdr[0]
}

// image is the WAL after base, the first n writes of ops and the first
// part bytes of write n.
func image(base []byte, ops []walWrite, n, part int) []byte {
	img := bytes.Clone(base)
	apply := func(w walWrite, b []byte) {
		if end := w.off + int64(len(b)); end > int64(len(img)) {
			img = append(img, make([]byte, end-int64(len(img)))...)
		}
		copy(img[w.off:], b)
	}
	for _, w := range ops[:n] {
		apply(w, w.b)
	}
	if part > 0 {
		apply(ops[n], ops[n].b[:part])
	}
	return img
}

// TestBatchCutAnywhereReplaysAsTornTail writes a three-record batch and
// replays the WAL as a crash would leave it before each of the batch's
// writes and halfway through each: inside a payload, at a frame's zero
// placeholder, between the last payload byte and the first header, and
// between two header writes. Every cut opens as a torn tail whose records
// are exactly those before the batch plus the batch frames whose header
// had landed — always a prefix of the batch — and an append after the
// reopen replays. The batch is written by one Append, and as three admits
// reserved and filled window by window in interleaved order, where a cut
// also lands inside a window or between two.
func TestBatchCutAnywhereReplaysAsTornTail(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		batch := []*wire.JournalRecord{vectorRecord(2), rec(wire.JournalLedger, 2), vectorRecord(3)}
		cutBatchAnywhere(t, batch, func(j *Journal) error { return j.Append(batch...) })
	})
	t.Run("reserved", func(t *testing.T) {
		batch := admitBatch(3, 600, 2)
		cutBatchAnywhere(t, batch, func(j *Journal) error { return fillWindows(j, batch, 256) })
	})
}

// cutBatchAnywhere is TestBatchCutAnywhereReplaysAsTornTail for the batch
// write writes.
func cutBatchAnywhere(t *testing.T, batch []*wire.JournalRecord, write func(*Journal) error) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	j.NoSync = true
	earlier := []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), vectorRecord(1)}
	if err := j.Append(earlier...); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	rw := &recordingWAL{File: j.wal.(*os.File), j: j}
	j.wal = rw
	if err := write(j); err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		r.Seq = uint64(len(earlier) + 1 + i)
	}
	j.wal = rw.File
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if got := image(base, rw.ops, len(rw.ops), 0); !bytes.Equal(got, whole) {
		t.Fatal("the recorded writes do not rebuild the WAL")
	}

	firstHeader, headers := -1, 0
	for i, w := range rw.ops {
		if w.header {
			if firstHeader < 0 {
				firstHeader = i
			}
			headers++
		} else if firstHeader >= 0 {
			t.Fatalf("write %d lands after a header: the headers must be written last", i)
		}
	}
	if headers != len(batch) || firstHeader != len(rw.ops)-len(batch) {
		t.Fatalf("%d header writes starting at write %d of %d; want the last %d", headers, firstHeader, len(rw.ops), len(batch))
	}

	cuts := 0
	for n := range rw.ops {
		for _, part := range []int{0, len(rw.ops[n].b) / 2} {
			if n == 0 && part == 0 {
				continue // nothing of the batch written yet
			}
			landed := 0
			if n > firstHeader {
				landed = n - firstHeader
			}
			name := fmt.Sprintf("write %d of %d, %d of its %d bytes", n, len(rw.ops), part, len(rw.ops[n].b))
			cdir := filepath.Join(t.TempDir(), "cut")
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, walName), image(base, rw.ops, n, part), 0o644); err != nil {
				t.Fatal(err)
			}
			cj := mustOpen(t, cdir)
			got := cj.Recovered()
			if !got.TornTail {
				t.Fatalf("%s: not reported as a torn tail", name)
			}
			want := append(append([]*wire.JournalRecord(nil), earlier...), batch[:landed]...)
			sameRecords(t, name, got.Records, want)
			after := rec(wire.JournalCommit, 3)
			if err := cj.Append(after); err != nil {
				t.Fatal(err)
			}
			if err := cj.Close(); err != nil {
				t.Fatal(err)
			}
			cj = mustOpen(t, cdir)
			if cj.Recovered().TornTail {
				t.Fatalf("%s: the append after the reopen left a torn tail", name)
			}
			sameRecords(t, name+", appended", cj.Recovered().Records, append(want, after))
			cj.Close()
			cuts++
		}
	}
	t.Logf("%d cuts across %d writes", cuts, len(rw.ops))
}

// TestBatchAppendWritesWhatSingleAppendsWrite: one Append of a batch and
// one Append per record leave byte-identical WALs — group commit changes
// how often the journal reaches the disk, not what it writes.
func TestBatchAppendWritesWhatSingleAppendsWrite(t *testing.T) {
	records := func() []*wire.JournalRecord {
		return []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), vectorRecord(1),
			{Op: wire.JournalAdmit, Round: 1, ClientID: 1, Primal: goldenVector(4097, 5)}, rec(wire.JournalCommit, 1)}
	}
	wal := func(batched bool) []byte {
		dir := t.TempDir()
		j := mustOpen(t, dir)
		j.NoSync = true
		recs := records()
		batches := [][]*wire.JournalRecord{recs}
		if !batched {
			batches = nil
			for _, r := range recs {
				batches = append(batches, []*wire.JournalRecord{r})
			}
		}
		for _, b := range batches {
			if err := j.Append(b...); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(wal(true), wal(false)) {
		t.Fatal("a batched Append wrote different bytes from one Append per record")
	}
}

// TestStatsCountGroupCommits: with fsync on, a batch is one fsync however
// many frames it holds; the frame, byte and checkpoint counts match what
// was written, and an in-process Recover keeps the totals.
func TestStatsCountGroupCommits(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	defer j.Close()
	batch := []*wire.JournalRecord{vectorRecord(1), vectorRecord(2), vectorRecord(3), vectorRecord(4)}
	if err := j.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(wire.JournalCommit, 1)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	s := j.Stats()
	if s.Frames != 5 || s.Fsyncs != 2 || s.Bytes != uint64(info.Size()) || s.Checkpoints != 0 {
		t.Fatalf("after a 4-record batch and a commit: %+v; want 5 frames, 2 fsyncs, %d bytes", s, info.Size())
	}
	if s.AppendSec <= 0 || s.FsyncSec <= 0 || s.FsyncSec > s.AppendSec {
		t.Fatalf("append %.6f s, fsync %.6f s: want 0 < fsync <= append", s.AppendSec, s.FsyncSec)
	}
	if err := j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: goldenVector(512, 9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Checkpoints != 1 || s.CheckpointSec <= 0 || s.Frames != 5 {
		t.Fatalf("after a checkpoint and a recover: %+v", s)
	}
}

// TestStartCheckpointIsJoinedByTheNextCall: a checkpoint started in the
// background has landed — snapshot renamed in, WAL truncated — by the time
// the next Append, Recover or Close returns, and a failed one fails the
// next call (which then appends nothing) and only that call.
func TestStartCheckpointIsJoinedByTheNextCall(t *testing.T) {
	cp := func() *wire.JournalCheckpoint {
		return &wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: goldenVector(gateDim, 3)}
	}
	for _, next := range []string{"append", "recover", "close"} {
		t.Run(next, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir)
			j.NoSync = true
			first := []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), rec(wire.JournalCommit, 1)}
			if err := j.Append(first...); err != nil {
				t.Fatal(err)
			}
			if err := j.StartCheckpoint(cp()); err != nil {
				t.Fatal(err)
			}
			var err error
			switch next {
			case "append":
				err = j.Append(rec(wire.JournalRoundStart, 2))
			case "recover":
				_, err = j.Recover()
			case "close":
				err = j.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			j = mustOpen(t, dir)
			defer j.Close()
			got := j.Recovered()
			if got.Checkpoint == nil || got.Checkpoint.Seq != 2 {
				t.Fatalf("checkpoint after the %s: %+v", next, got.Checkpoint)
			}
			var want []*wire.JournalRecord
			if next == "append" {
				want = append(want, rec(wire.JournalRoundStart, 2))
			}
			for i, r := range want {
				r.Seq = uint64(3 + i)
			}
			sameRecords(t, "tail", got.Records, want)
		})
	}

	t.Run("failed", func(t *testing.T) {
		orig := dirSync
		defer func() { dirSync = orig }()
		dirSync = func(*os.File) error { return &os.PathError{Op: "sync", Path: "dir", Err: syscall.EIO} }
		j := mustOpen(t, t.TempDir())
		defer j.Close()
		j.NoSync = true
		if err := j.StartCheckpoint(cp()); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec(wire.JournalRoundStart, 1)); !errors.Is(err, syscall.EIO) {
			t.Fatalf("the append after a failed checkpoint returned %v, want EIO", err)
		}
		if j.Seq() != 0 {
			t.Fatalf("the failing append assigned seq %d", j.Seq())
		}
		if err := j.WaitCheckpoint(); err != nil {
			t.Fatalf("the failure was reported twice: %v", err)
		}
		if err := j.Append(rec(wire.JournalRoundStart, 1)); err != nil {
			t.Fatalf("append after the reported failure: %v", err)
		}
	})
}
