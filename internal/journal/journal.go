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
//
// A Journal holds no copy of what it writes: Append and Checkpoint encode
// with wire.Encoder.EncodeVectored, so a record's (or a checkpoint's)
// float64 blocks go from the caller's vectors to the file, and the journal
// keeps only the few encoded bytes around them. The caller's vectors are
// read during the call and must not change until it returns.
type Journal struct {
	// NoSync skips the per-append fsync. The in-process soak harness (and
	// the append microbench) set it: they simulate process death, not
	// power loss, so the OS page cache is part of the surviving "disk".
	// Real servers leave it false.
	NoSync bool

	dir       string
	wal       walFile
	end       int64  // WAL offset after the last whole frame
	err       error  // sticky: a write left the WAL's tail unknown
	seq       uint64 // last assigned sequence number
	recovered *Recovered

	enc   wire.Encoder
	segs  [][]byte // the encoded message: enc's bytes and views of the caller's vectors
	frame [][]byte // a header, then segs
	hdr   [len(checkpointMagic) + 8]byte
}

// walFile is what the journal needs of its open WAL; *os.File is the one
// implementation outside tests, which substitute a file that fails
// partway through a write.
type walFile interface {
	io.Writer
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Close() error
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
	// Cut any torn tail so new appends extend a clean log rather than
	// interleaving after garbage.
	j.wal = wal
	if err := j.rewind(good); err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: truncating %s after its last whole frame: %w", walPath, err)
	}
	j.recovered = rec
	return j, nil
}

// replayWAL scans wal from the start, decoding every whole valid frame
// into rec and returning the offset after the last good frame. Records at
// or before the checkpoint's sequence are skipped (the crash window
// between checkpoint rename and WAL truncation leaves them behind); a
// sequence that fails to increase afterwards is corruption. A frame is
// read only once its declared length fits in what is left of the file —
// a torn header is never an allocation request — and every frame is read
// into one buffer, which nothing decoded from it aliases (JournalRecord's
// vectors are copied out).
func (j *Journal) replayWAL(wal *os.File, rec *Recovered) (good int64, torn bool, err error) {
	info, err := wal.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("journal: stat %s: %w", wal.Name(), err)
	}
	r := &countingReader{r: wal}
	var hdr [8]byte
	var payload []byte
	var dec wire.Decoder
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			return good, err != io.EOF, nil
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n == 0 || n > maxFrame || n > info.Size()-r.n {
			return good, true, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, true, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, true, nil
		}
		m := &wire.JournalRecord{}
		dec.Reset(payload)
		if err := m.Unmarshal(&dec); err != nil {
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
// and may take effect in memory. A failed Append leaves no part of its
// frame in the WAL, so it can never hide the records appended after it;
// if the WAL cannot be cut back, every later Append and Checkpoint fails
// with the same error.
func (j *Journal) Append(rec *wire.JournalRecord) error {
	if err := j.writable("append"); err != nil {
		return err
	}
	rec.Seq = j.seq + 1
	n, sum := j.encode(j.hdr[:8], rec)
	if n > maxFrame {
		return fmt.Errorf("journal: record of %d bytes exceeds the frame bound", n)
	}
	binary.BigEndian.PutUint32(j.hdr[:4], uint32(n))
	binary.BigEndian.PutUint32(j.hdr[4:8], sum)
	err := writeAll(j.wal, j.frame)
	if err == nil && !j.NoSync {
		err = j.wal.Sync()
	}
	if err != nil {
		err = fmt.Errorf("journal: append: %w", err)
		if j.rewind(j.end) != nil {
			// The WAL's tail is unknown: take no further writes.
			j.err = err
		}
		return err
	}
	j.end += 8 + int64(n)
	j.seq = rec.Seq
	return nil
}

// Checkpoint writes cp as the new compaction snapshot (atomically: tmp +
// fsync + rename) stamped with the current sequence number, then truncates
// the WAL — every appended record is now folded into the snapshot. A crash
// between the rename and the truncation is harmless: replay skips tail
// records at or before the checkpoint sequence.
func (j *Journal) Checkpoint(cp *wire.JournalCheckpoint) error {
	if err := j.writable("checkpoint"); err != nil {
		return err
	}
	cp.Seq = j.seq
	copy(j.hdr[:], checkpointMagic)
	n, sum := j.encode(j.hdr[:], cp)
	binary.BigEndian.PutUint32(j.hdr[len(checkpointMagic):], uint32(n))
	binary.BigEndian.PutUint32(j.hdr[len(checkpointMagic)+4:], sum)
	if err := AtomicWriteFile(filepath.Join(j.dir, checkpointName), 0o644, j.frame...); err != nil {
		return err
	}
	if err := j.rewind(0); err != nil {
		j.err = fmt.Errorf("journal: truncating WAL after checkpoint: %w", err)
		return j.err
	}
	return nil
}

// writable reports why the journal cannot take a write, if it cannot.
func (j *Journal) writable(op string) error {
	if j.wal == nil {
		return fmt.Errorf("journal: %s on a closed journal", op)
	}
	return j.err
}

// encode encodes m into j.frame behind head — head, then the encoder's
// bytes interleaved with views of m's vectors — and returns m's encoded
// length and its CRC-32 (IEEE), chained over the segments.
func (j *Journal) encode(head []byte, m wire.Marshaler) (n int, sum uint32) {
	j.segs = j.enc.EncodeVectored(m, j.segs)
	j.frame = append(append(j.frame[:0], head), j.segs...)
	for _, s := range j.segs {
		n += len(s)
		sum = crc32.Update(sum, crc32.IEEETable, s)
	}
	return n, sum
}

// rewind cuts the WAL back to off and puts the next append there.
func (j *Journal) rewind(off int64) error {
	if err := j.wal.Truncate(off); err != nil {
		return err
	}
	if _, err := j.wal.Seek(off, io.SeekStart); err != nil {
		return err
	}
	j.end = off
	return nil
}

// writeAll writes segs in order.
func writeAll(w io.Writer, segs [][]byte) error {
	for _, s := range segs {
		if _, err := w.Write(s); err != nil {
			return err
		}
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
