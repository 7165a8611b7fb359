// Package journal is the server's crash-safe write-ahead log and
// checkpoint store. Every recovery-relevant state transition — round
// start, admitted update, ledger mutation, round commit — is appended (and
// by default fsynced) as one CRC-framed wire.JournalRecord *before* the
// transition takes effect in memory; a checkpoint compacts the log by
// snapshotting the full server state. On reboot, Open replays checkpoint +
// tail: a torn final frame (the crash landed mid-append) is truncated and
// tolerated, while corruption anywhere else surfaces as the typed
// ErrCorrupt — a journal never silently resurrects garbage state.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// ErrCorrupt tags every integrity failure of the journal or checkpoint:
// bad magic, CRC mismatch off the torn tail, undecodable record bytes, or
// a sequence regression. Callers distinguish it from I/O errors because
// the remedy differs (restore from backup vs retry).
var ErrCorrupt = errors.New("journal: corrupt")

const (
	walName        = "wal.log"
	checkpointName = "checkpoint.bin"
	// checkpointMagic stamps checkpoint files; the trailing digit versions
	// the container format (not the payload schema, which the wire codec's
	// unknown-field tolerance evolves).
	checkpointMagic = "APFLJ001"
	// maxFrame bounds a single WAL frame; a declared length beyond it is
	// treated as corruption rather than an allocation request.
	maxFrame = 1 << 30
)

// Recovered is the state Open (or Recover) reconstructed from disk.
type Recovered struct {
	// Checkpoint is the latest compaction snapshot, nil when none exists.
	Checkpoint *wire.JournalCheckpoint
	// Records is the WAL tail after the checkpoint, in append order.
	Records []*wire.JournalRecord
	// TornTail reports that trailing bytes of the WAL did not form a whole
	// valid frame — the signature of a crash mid-append — and were
	// truncated away.
	TornTail bool
}

// Empty reports that nothing was recovered: a fresh journal.
func (r *Recovered) Empty() bool {
	return r == nil || (r.Checkpoint == nil && len(r.Records) == 0)
}

// Journal is an open write-ahead round journal rooted at one directory.
// Not safe for concurrent use; the server's round loop is its only writer.
type Journal struct {
	// NoSync skips the per-append fsync. The in-process soak harness (and
	// the append microbench) set it: they simulate process death, not
	// power loss, so the OS page cache is part of the surviving "disk".
	// Real servers leave it false.
	NoSync bool

	dir       string
	wal       *os.File
	seq       uint64 // last assigned sequence number
	recovered *Recovered
	enc       wire.Encoder
	hdr       [8]byte
}

// Open opens (creating if needed) the journal in dir, replaying any
// existing checkpoint and WAL tail. The recovered state is available via
// Recovered; the WAL is positioned for appending.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	j := &Journal{dir: dir}
	rec := &Recovered{}
	cp, err := loadCheckpoint(filepath.Join(dir, checkpointName))
	if err != nil {
		return nil, err
	}
	rec.Checkpoint = cp
	if cp != nil {
		j.seq = cp.Seq
	}

	walPath := filepath.Join(dir, walName)
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", walPath, err)
	}
	good, torn, err := j.replayWAL(wal, rec)
	if err != nil {
		wal.Close()
		return nil, err
	}
	rec.TornTail = torn
	if torn {
		// Truncate the torn tail so new appends extend a clean log rather
		// than interleaving after garbage.
		if err := wal.Truncate(good); err != nil {
			wal.Close()
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", walPath, err)
		}
	}
	if _, err := wal.Seek(good, io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: seeking %s: %w", walPath, err)
	}
	j.wal = wal
	j.recovered = rec
	return j, nil
}

// replayWAL scans wal from the start, decoding every whole valid frame
// into rec and returning the offset after the last good frame. Records at
// or before the checkpoint's sequence are skipped (the crash window
// between checkpoint rename and WAL truncation leaves them behind); a
// sequence that fails to increase afterwards is corruption.
func (j *Journal) replayWAL(wal *os.File, rec *Recovered) (good int64, torn bool, err error) {
	r := &countingReader{r: wal}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			return good, err != io.EOF, nil
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxFrame {
			return good, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, true, nil
		}
		m := &wire.JournalRecord{}
		if err := m.Unmarshal(wire.NewDecoder(payload)); err != nil {
			// The CRC vouched for these bytes, so this is not a torn write:
			// the record was corrupted some other way.
			return good, false, fmt.Errorf("%w: WAL record at offset %d: %v", ErrCorrupt, good, err)
		}
		if m.Seq > j.seq {
			if len(rec.Records) > 0 && m.Seq != j.seq+1 {
				return good, false, fmt.Errorf("%w: WAL sequence jumped %d -> %d at offset %d",
					ErrCorrupt, j.seq, m.Seq, good)
			}
			rec.Records = append(rec.Records, m)
			j.seq = m.Seq
		}
		good = r.n
	}
}

// countingReader tracks the absolute offset consumed from r.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Recovered returns the state loaded when the journal was opened.
func (j *Journal) Recovered() *Recovered { return j.recovered }

// Seq returns the last assigned journal sequence number.
func (j *Journal) Seq() uint64 { return j.seq }

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// Append assigns rec the next sequence number and writes it as one framed
// entry, fsyncing before returning (unless NoSync) — the write-ahead
// barrier callers rely on: when Append returns, the transition is durable
// and may take effect in memory.
func (j *Journal) Append(rec *wire.JournalRecord) error {
	if j.wal == nil {
		return fmt.Errorf("journal: append on a closed journal")
	}
	rec.Seq = j.seq + 1
	payload := j.enc.Encode(rec)
	if len(payload) > maxFrame {
		return fmt.Errorf("journal: record of %d bytes exceeds the frame bound", len(payload))
	}
	binary.BigEndian.PutUint32(j.hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(j.hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := j.wal.Write(j.hdr[:]); err != nil {
		return fmt.Errorf("journal: append header: %w", err)
	}
	if _, err := j.wal.Write(payload); err != nil {
		return fmt.Errorf("journal: append payload: %w", err)
	}
	if !j.NoSync {
		if err := j.wal.Sync(); err != nil {
			return fmt.Errorf("journal: append fsync: %w", err)
		}
	}
	j.seq = rec.Seq
	return nil
}

// Checkpoint writes cp as the new compaction snapshot (atomically: tmp +
// fsync + rename) stamped with the current sequence number, then truncates
// the WAL — every appended record is now folded into the snapshot. A crash
// between the rename and the truncation is harmless: replay skips tail
// records at or before the checkpoint sequence.
func (j *Journal) Checkpoint(cp *wire.JournalCheckpoint) error {
	if j.wal == nil {
		return fmt.Errorf("journal: checkpoint on a closed journal")
	}
	cp.Seq = j.seq
	payload := j.enc.Encode(cp)
	buf := make([]byte, 0, len(checkpointMagic)+8+len(payload))
	buf = append(buf, checkpointMagic...)
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, frame[:]...)
	buf = append(buf, payload...)
	if err := AtomicWriteFile(filepath.Join(j.dir, checkpointName), buf, 0o644); err != nil {
		return err
	}
	if err := j.wal.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating WAL after checkpoint: %w", err)
	}
	if _, err := j.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: rewinding WAL after checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads and validates the checkpoint file, returning nil
// when none exists. Any integrity failure — short file, bad magic, CRC
// mismatch, undecodable payload — is ErrCorrupt: checkpoints are written
// atomically, so a damaged one is never a benign torn write.
func loadCheckpoint(path string) (*wire.JournalCheckpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	if len(buf) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: checkpoint %s is %d bytes, shorter than its header", ErrCorrupt, path, len(buf))
	}
	if string(buf[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: checkpoint %s has bad magic", ErrCorrupt, path)
	}
	body := buf[len(checkpointMagic):]
	n := binary.BigEndian.Uint32(body[:4])
	sum := binary.BigEndian.Uint32(body[4:8])
	payload := body[8:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("%w: checkpoint %s declares %d payload bytes, has %d", ErrCorrupt, path, n, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checkpoint %s CRC mismatch", ErrCorrupt, path)
	}
	cp := &wire.JournalCheckpoint{}
	if err := cp.Unmarshal(wire.NewDecoder(payload)); err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s: %v", ErrCorrupt, path, err)
	}
	return cp, nil
}

// Recover simulates a process restart in place: the WAL handle is closed
// and the journal re-opened from disk, replaying checkpoint + tail exactly
// as a rebooted server would. The in-process kill -9 soak harness calls it
// where a real deployment would re-exec. The receiver is rebound to the
// fresh journal; the returned state is what survived.
func (j *Journal) Recover() (*Recovered, error) {
	noSync := j.NoSync
	if j.wal != nil {
		// A killed process does not flush or close anything gracefully; the
		// OS still persists completed writes, which plain Close models.
		if err := j.wal.Close(); err != nil {
			return nil, fmt.Errorf("journal: recover: %w", err)
		}
		j.wal = nil
	}
	nj, err := Open(j.dir)
	if err != nil {
		return nil, err
	}
	*j = *nj
	j.NoSync = noSync
	return j.recovered, nil
}

// Close flushes and closes the WAL.
func (j *Journal) Close() error {
	if j.wal == nil {
		return nil
	}
	var firstErr error
	if !j.NoSync {
		firstErr = j.wal.Sync()
	}
	if err := j.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	j.wal = nil
	return firstErr
}
