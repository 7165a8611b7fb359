package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// admitBatch is n admits of dim-value primals, as whole records.
func admitBatch(n, dim int, round uint32) []*wire.JournalRecord {
	recs := make([]*wire.JournalRecord, n)
	for i := range recs {
		recs[i] = &wire.JournalRecord{Op: wire.JournalAdmit, Round: round, ClientID: uint32(i), NumSamples: uint64(10 + i),
			BaseVersion: uint64(round - 1), Primal: goldenVector(dim, uint64(7*i)+uint64(round))}
	}
	return recs
}

// withheld is recs without their primals: the records a windowed round
// reserves.
func withheld(recs []*wire.JournalRecord) []*wire.JournalRecord {
	out := make([]*wire.JournalRecord, len(recs))
	for i, r := range recs {
		c := *r
		c.Primal = nil
		out[i] = &c
	}
	return out
}

// fillWindows reserves recs' frames withholding their primals and fills
// them window by window, width values at a time — each window's clients
// in an order that rotates from window to window, so the frames' writes
// interleave — then commits.
func fillWindows(j *Journal, recs []*wire.JournalRecord, width int) error {
	dim := len(recs[0].Primal)
	if err := j.Reserve(withheld(recs), dim); err != nil {
		return err
	}
	for w, lo := 0, 0; lo < dim; w, lo = w+1, lo+width {
		hi := min(lo+width, dim)
		for k := range recs {
			i := (k + w) % len(recs)
			if err := j.Fill(i, lo, recs[i].Primal[lo:hi]); err != nil {
				return err
			}
		}
	}
	return j.Commit()
}

// TestReservedFramesWriteWhatAppendWrites: admits reserved with their
// primals withheld and filled window by window, in an interleaved client
// order, leave the WAL byte for byte what one Append of the whole records
// leaves, with the same stats — for a primal the encoder copies (under 4
// KiB), one it references, and one whose byte length takes a three-byte
// varint.
func TestReservedFramesWriteWhatAppendWrites(t *testing.T) {
	for _, dim := range []int{3, 700, 5000} {
		t.Run(fmt.Sprint(dim), func(t *testing.T) {
			wal := func(reserved bool) ([]byte, Stats) {
				dir := t.TempDir()
				j := mustOpen(t, dir)
				recs := admitBatch(3, dim, 2)
				if err := j.Append(rec(wire.JournalRoundStart, 2)); err != nil {
					t.Fatal(err)
				}
				var err error
				if reserved {
					err = fillWindows(j, recs, 256)
				} else {
					err = j.Append(recs...)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Append(rec(wire.JournalCommit, 2)); err != nil {
					t.Fatal(err)
				}
				s := j.Stats()
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(filepath.Join(dir, walName))
				if err != nil {
					t.Fatal(err)
				}
				return raw, s
			}
			appended, as := wal(false)
			filled, fs := wal(true)
			if !bytes.Equal(appended, filled) {
				t.Fatalf("the reserved and filled batch wrote %d bytes that differ from Append's %d", len(filled), len(appended))
			}
			if as.Frames != fs.Frames || as.Bytes != fs.Bytes || as.Fsyncs != fs.Fsyncs || fs.Fsyncs != 3 {
				t.Fatalf("stats after Append %+v, after Reserve+Fill+Commit %+v; want equal, 3 fsyncs", as, fs)
			}
		})
	}
}

// TestReservedBatchRefusesMisuse: a window out of order, a frame filled
// past its primal, a commit with a primal short, a record that cannot
// withhold its primal, or any other write while a batch is open fails —
// and a failed batch leaves nothing of itself in the WAL.
func TestReservedBatchRefusesMisuse(t *testing.T) {
	recs := admitBatch(2, 40, 1)
	for _, c := range []struct {
		name string
		do   func(j *Journal) error
	}{
		{"window skipped", func(j *Journal) error { return j.Fill(0, 16, recs[0].Primal[16:32]) }},
		{"window repeated", func(j *Journal) error {
			if err := j.Fill(1, 0, recs[1].Primal[:16]); err != nil {
				return err
			}
			return j.Fill(1, 0, recs[1].Primal[:16])
		}},
		{"past the primal", func(j *Journal) error { return j.Fill(0, 0, append(recs[0].Primal, 1)) }},
		{"no such frame", func(j *Journal) error { return j.Fill(2, 0, recs[0].Primal[:8]) }},
		{"primal short", func(j *Journal) error {
			if err := j.Fill(0, 0, recs[0].Primal); err != nil {
				return err
			}
			return j.Commit()
		}},
		{"append", func(j *Journal) error { return j.Append(rec(wire.JournalCommit, 1)) }},
		{"checkpoint", func(j *Journal) error { return j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			j := mustOpen(t, dir)
			j.NoSync = true
			first := rec(wire.JournalRoundStart, 1)
			if err := j.Append(first); err != nil {
				t.Fatal(err)
			}
			if err := j.Reserve(withheld(recs), 40); err != nil {
				t.Fatal(err)
			}
			if err := c.do(j); err == nil {
				t.Fatal("accepted")
			}
			if err := j.Abandon(); err != nil {
				t.Fatal(err)
			}
			later := rec(wire.JournalCommit, 1)
			if err := j.Append(later); err != nil {
				t.Fatalf("append after the refused batch: %v", err)
			}
			j.Close()
			j = mustOpen(t, dir)
			defer j.Close()
			if j.Recovered().TornTail {
				t.Fatal("the refused batch left a torn tail")
			}
			sameRecords(t, c.name, j.Recovered().Records, []*wire.JournalRecord{first, later})
		})
	}
	t.Run("record with a primal", func(t *testing.T) {
		j := mustOpen(t, t.TempDir())
		defer j.Close()
		if err := j.Reserve(recs, 40); err == nil {
			t.Fatal("a record holding its own primal was reserved withholding another")
		}
	})
}

// TestAbandonedBatchRewindsTheWAL: a batch abandoned after some of its
// windows were written — a gather that failed mid-round — cuts the WAL
// back to its last whole frame: the file is as long as before the
// Reserve, the next append lands there, and a reopen finds no torn tail.
func TestAbandonedBatchRewindsTheWAL(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	j.NoSync = true
	first := rec(wire.JournalRoundStart, 1)
	if err := j.Append(first); err != nil {
		t.Fatal(err)
	}
	before := j.end
	recs := admitBatch(3, 600, 1)
	if err := j.Reserve(withheld(recs), 600); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := j.Fill(i, 0, recs[i].Primal[:256]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Fill(0, 256, recs[0].Primal[256:512]); err != nil {
		t.Fatal(err)
	}
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != before || j.end != before || j.Seq() != 1 {
		t.Fatalf("after the abandon: %d bytes on disk, end %d, seq %d; want %d, %d, 1", info.Size(), j.end, j.Seq(), before, before)
	}
	if err := j.Abandon(); err != nil {
		t.Fatalf("a second abandon: %v", err)
	}
	if err := fillWindows(j, recs, 256); err != nil {
		t.Fatalf("a batch after the abandoned one: %v", err)
	}
	j.Close()
	j = mustOpen(t, dir)
	defer j.Close()
	if j.Recovered().TornTail {
		t.Fatal("torn tail after an abandoned batch")
	}
	for i, r := range recs {
		r.Seq = uint64(2 + i)
	}
	sameRecords(t, "reopen", j.Recovered().Records, append([]*wire.JournalRecord{first}, recs...))
}
