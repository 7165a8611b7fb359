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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

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
// The exceptions are StartCheckpoint, which hands a checkpoint to a
// goroutine that every later call joins first, and Stats, which may be
// read while a write is in progress.
//
// A Journal holds no copy of what it writes: a batch's frames and a
// checkpoint are encoded with wire.Encoder.EncodeVectored, so their
// float64 blocks go from the caller's vectors to the file, and the journal
// keeps only the few encoded bytes around them. The caller's vectors are
// read during the call that hands them over and must not change until it
// returns.
//
// Every WAL frame is written by one path: Reserve places a batch of frames
// at the WAL's end, Fill writes the primal a frame withholds, and Commit
// lands the headers and fsyncs. Append is Reserve and Commit with nothing
// withheld.
type Journal struct {
	// NoSync skips the per-batch fsync. The in-process soak harness (and
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
	stats     *counters // kept across Recover

	frames   []frame       // frames[:batch] is the reserved batch
	batch    int           // frames reserved and not yet committed; 0 when none
	batchEnd int64         // WAL offset after the reserved batch
	batchNs  time.Duration // time spent in the batch's Reserve, Fill and Commit calls
	sums     chan []frame  // to the helper that sums a batch's frames; nil until the first Reserve
	summed   chan struct{} // from the helper: the batch's sums are in
	hdr      [8]byte       // one WAL frame header
	le       []byte        // a window's little-endian bytes, on a big-endian host only

	ckpt     frame
	ckptHdr  [len(checkpointMagic) + 8]byte
	ckptSegs [][]byte   // ckptHdr, then ckpt's segments
	pending  chan error // the checkpoint StartCheckpoint left running; nil when none
}

// frame is one encoded message: the encoder's bytes interleaved with views
// of the message's vectors, their total length and their CRC-32 (IEEE),
// chained over the segments. A reserved frame may withhold a primal: its
// last tail bytes are not among the segments but written by Fill, in
// order, the CRC chained over each window as it is written.
type frame struct {
	enc    wire.Encoder
	segs   [][]byte
	n      int    // the frame's length, its header excluded
	sum    uint32 // CRC-32 of the bytes written so far
	off    int64  // where its header goes in the WAL
	tail   int    // withheld primal bytes, at the frame's end
	filled int    // of them, written so far
	field  []byte // the withheld primal's field header, the last segment
}

func (f *frame) encode(m wire.Marshaler) {
	f.segs = f.enc.EncodeVectored(m, f.segs)
	f.n, f.tail, f.filled = 0, 0, 0
	for _, s := range f.segs {
		f.n += len(s)
	}
}

// primalTag is the tag wire.JournalRecord.Marshal writes before a
// record's primal, its last field: what a one-value primal adds to a
// record's encoding, less the one-byte length and the value.
var primalTag = func() []byte {
	var e wire.Encoder
	bare := len(e.Encode(&wire.JournalRecord{Op: wire.JournalAdmit}))
	with := e.Encode(&wire.JournalRecord{Op: wire.JournalAdmit, Primal: []float64{0}})
	return bytes.Clone(with[bare : len(with)-9])
}()

// withhold frames rec followed by a primal of dim values, which are left
// for Fill to write: the segments end with the field's tag and byte
// length, exactly what wire.Encoder.Doubles writes before the values, so
// the filled frame is byte for byte what encoding rec with its primal
// writes. Primal must be the record's last field: a record that carries
// any field after it, or a primal of its own, cannot withhold one.
func (f *frame) withhold(rec *wire.JournalRecord, dim int) error {
	if len(rec.Primal) > 0 || len(rec.Weights) > 0 || rec.LedgerOp != 0 || rec.Param != 0 {
		return errors.New("journal: only a record whose primal would be its last field can withhold one")
	}
	f.encode(rec)
	f.field = binary.AppendUvarint(append(f.field[:0], primalTag...), uint64(8*dim))
	f.segs = append(f.segs, f.field)
	f.tail = 8 * dim
	f.n += len(f.field) + f.tail
	return nil
}

func (f *frame) checksum() {
	f.sum = 0
	for _, s := range f.segs {
		f.sum = crc32.Update(f.sum, crc32.IEEETable, s)
	}
}

// sumFrames is the helper goroutine of a journal's batches: it sums each
// batch it is handed while the reserving goroutine writes the same frames,
// and reports back when the sums are in. It exits when in is closed.
func sumFrames(in <-chan []frame, out chan<- struct{}) {
	for fs := range in {
		for i := range fs {
			fs[i].checksum()
		}
		out <- struct{}{}
	}
}

// walFile is what the journal needs of its open WAL; *os.File is the one
// implementation outside tests, which substitute a file that fails
// partway through a write.
// Every write is a WriteAt: the journal keeps its own offsets.
type walFile interface {
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// walReader is what replay reads an opened WAL through: the file itself,
// outside tests, which substitute a reader that fails partway through.
var walReader = func(f *os.File) io.Reader { return f }

// Open opens (creating if needed) the journal in dir, replaying any
// existing checkpoint and WAL tail. The recovered state is available via
// Recovered; the WAL is positioned for appending. A WAL read that fails
// other than at the file's end fails Open and leaves the WAL as it was.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	j := &Journal{dir: dir, stats: &counters{}}
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
// vectors are copied out). Only the file's end ends the log or tears a
// frame: any other read error fails the replay, so Open never cuts
// records it could not read.
func (j *Journal) replayWAL(wal *os.File, rec *Recovered) (good int64, torn bool, err error) {
	info, err := wal.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("journal: stat %s: %w", wal.Name(), err)
	}
	r := &countingReader{r: walReader(wal)}
	readErr := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		return fmt.Errorf("journal: reading %s at offset %d: %w", wal.Name(), r.n, err)
	}
	var hdr [8]byte
	var payload []byte
	var dec wire.Decoder
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			return good, err == io.ErrUnexpectedEOF, readErr(err)
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
			return good, true, readErr(err)
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

// Append assigns recs the next sequence numbers and writes each as one
// framed entry, fsyncing the batch once before returning (unless NoSync) —
// the write-ahead barrier callers rely on: when Append returns, every
// transition in the batch is durable and may take effect in memory. It is
// Reserve with nothing withheld, then Commit.
//
// A failed Append leaves no part of its batch in the WAL, so it can never
// hide the records appended after it; if the WAL cannot be cut back, every
// later write fails with the same error.
func (j *Journal) Append(recs ...*wire.JournalRecord) error {
	if err := j.writable("append"); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	if err := j.reserve("append", recs, 0); err != nil {
		return err
	}
	return j.commit("append")
}

// Reserve assigns recs the next sequence numbers and places one frame for
// each, back to back, at the WAL's end: a zero header, then the record's
// bytes. With primal > 0 each record withholds a primal of that many
// values (see frame.withhold), which Fill writes window by window while
// the batch is open; nothing else may write to the journal until Commit
// or Abandon closes it. recs must not be empty. A checkpoint in flight is
// joined first.
//
// Each frame is summed as it is written — on the journal's helper
// goroutine when the batch holds several — and a withheld primal's CRC is
// chained over its windows as Fill writes them, so that Commit has every
// frame's sum.
//
// A failed Reserve, Fill or Commit cuts the WAL back to its last whole
// frame and closes the batch.
func (j *Journal) Reserve(recs []*wire.JournalRecord, primal int) error {
	if err := j.writable("reserve"); err != nil {
		return err
	}
	if len(recs) == 0 {
		return errors.New("journal: reserve of an empty batch")
	}
	return j.reserve("reserve", recs, primal)
}

func (j *Journal) reserve(op string, recs []*wire.JournalRecord, primal int) error {
	start := time.Now()
	if len(recs) > len(j.frames) {
		j.frames = append(j.frames, make([]frame, len(recs)-len(j.frames))...)
	}
	fs := j.frames[:len(recs)]
	off := j.end
	for i, rec := range recs {
		rec.Seq = j.seq + 1 + uint64(i)
		f := &fs[i]
		if primal > 0 {
			if err := f.withhold(rec, primal); err != nil {
				return err
			}
		} else {
			f.encode(rec)
		}
		if f.n > maxFrame {
			return fmt.Errorf("journal: record of %d bytes exceeds the frame bound", f.n)
		}
		f.off = off
		off += 8 + int64(f.n)
	}
	// A batch of several frames is summed on the helper while it is
	// written. A lone frame is summed here: handing one frame over buys
	// one CRC's worth of overlap for a wake-up, and now and then a runtime
	// allocation (a wait record, a thread), which a warm single-record
	// Append must not make.
	helped := len(fs) > 1
	if helped {
		if j.sums == nil {
			j.sums, j.summed = make(chan []frame, 1), make(chan struct{}, 1)
			go sumFrames(j.sums, j.summed)
		}
		j.sums <- fs
	}
	err := j.writeFrames(fs)
	if helped {
		<-j.summed // the helper reads the caller's vectors until here
	} else {
		fs[0].checksum()
	}
	if err != nil {
		return j.fail(op, err)
	}
	j.batch, j.batchEnd = len(fs), off
	j.batchNs = time.Since(start)
	return nil
}

// Fill writes vals as the primal values [lo, lo+len(vals)) that frame i of
// the open batch withholds. A frame's windows are written in order: lo
// must be where the previous Fill of frame i ended. The frames of a batch
// may be filled in any interleaving. vals is read during the call only.
func (j *Journal) Fill(i, lo int, vals []float64) error {
	start := time.Now()
	if i < 0 || i >= j.batch {
		return j.fail("fill", fmt.Errorf("frame %d of a batch of %d", i, j.batch))
	}
	f := &j.frames[i]
	b := j.littleEndian(vals)
	if 8*lo != f.filled || f.filled+len(b) > f.tail {
		return j.fail("fill", fmt.Errorf("frame %d: values [%d,%d) after %d of its %d",
			i, lo, lo+len(vals), f.filled/8, f.tail/8))
	}
	if _, err := j.wal.WriteAt(b, f.off+8+int64(f.n-f.tail+f.filled)); err != nil {
		return j.fail("fill", err)
	}
	f.sum = crc32.Update(f.sum, crc32.IEEETable, b)
	f.filled += len(b)
	j.batchNs += time.Since(start)
	return nil
}

// Commit closes the open batch: every frame's header is written over its
// placeholder, in order, and the batch is fsynced once (unless NoSync).
// A header that lands is its frame's commit point: a crash before it
// leaves a zero header, which replay treats as a torn tail, so only a
// prefix of the batch can ever survive, and only frames whose header
// landed. A frame whose withheld primal is not all written fails the
// Commit.
func (j *Journal) Commit() error { return j.commit("commit") }

func (j *Journal) commit(op string) error {
	start := time.Now()
	if j.batch == 0 {
		return fmt.Errorf("journal: %s with no batch reserved", op)
	}
	fs := j.frames[:j.batch]
	for i := range fs {
		if fs[i].filled != fs[i].tail {
			return j.fail(op, fmt.Errorf("frame %d holds %d of its %d primal values", i, fs[i].filled/8, fs[i].tail/8))
		}
	}
	err := j.writeHeaders(fs)
	var synced time.Duration
	if err == nil && !j.NoSync {
		t := time.Now()
		err = j.wal.Sync()
		synced = time.Since(t)
	}
	if err != nil {
		return j.fail(op, err)
	}
	size := uint64(j.batchEnd - j.end)
	j.end, j.seq = j.batchEnd, j.seq+uint64(len(fs))
	j.batch = 0
	j.stats.frames.Add(uint64(len(fs)))
	j.stats.bytes.Add(size)
	if !j.NoSync {
		j.stats.fsyncs.Add(1)
		j.stats.fsyncNs.Add(uint64(synced))
	}
	j.stats.appendNs.Add(uint64(j.batchNs + time.Since(start)))
	return nil
}

// Abandon closes the open batch without committing it, cutting the WAL
// back to its last whole frame. With no batch open it does nothing.
func (j *Journal) Abandon() error {
	if j.batch == 0 {
		return nil
	}
	j.batch = 0
	if err := j.rewind(j.end); err != nil {
		j.err = fmt.Errorf("journal: abandon: %w", err)
		return j.err
	}
	return nil
}

// fail closes the open batch after a failed write and cuts the WAL back
// to its last whole frame; if it cannot, the WAL's tail is unknown and the
// journal takes no further writes.
func (j *Journal) fail(op string, err error) error {
	err = fmt.Errorf("journal: %s: %w", op, err)
	j.batch = 0
	if j.rewind(j.end) != nil {
		j.err = err
	}
	return err
}

// littleEndian returns vals' wire bytes: a view of their storage on a
// little-endian host, a conversion into the journal's window buffer
// elsewhere.
func (j *Journal) littleEndian(vals []float64) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 8*len(vals))
	}
	j.le = slices.Grow(j.le[:0], 8*len(vals))[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(j.le[8*i:], math.Float64bits(v))
	}
	return j.le
}

// hostLittleEndian reports whether a float64's bytes in memory are its
// wire form.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// zeroHeader is every frame's placeholder header until its CRC is known.
var zeroHeader [8]byte

// writeFrames writes each frame of the batch at its offset: a zero header,
// then its segments. A withheld primal's bytes are left for Fill.
func (j *Journal) writeFrames(fs []frame) error {
	for i := range fs {
		off := fs[i].off
		if _, err := j.wal.WriteAt(zeroHeader[:], off); err != nil {
			return err
		}
		off += 8
		for _, s := range fs[i].segs {
			if _, err := j.wal.WriteAt(s, off); err != nil {
				return err
			}
			off += int64(len(s))
		}
	}
	return nil
}

// writeHeaders writes each frame's real header over its placeholder, in
// order, so the frames whose headers have landed are always a prefix of
// the batch.
func (j *Journal) writeHeaders(fs []frame) error {
	for i := range fs {
		binary.BigEndian.PutUint32(j.hdr[:4], uint32(fs[i].n))
		binary.BigEndian.PutUint32(j.hdr[4:], fs[i].sum)
		if _, err := j.wal.WriteAt(j.hdr[:], fs[i].off); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes cp as the new compaction snapshot (atomically: tmp +
// fsync + rename + directory fsync) stamped with the current sequence
// number, then truncates the WAL — every appended record is now folded
// into the snapshot. A crash between the rename and the truncation is
// harmless: replay skips tail records at or before the checkpoint
// sequence.
func (j *Journal) Checkpoint(cp *wire.JournalCheckpoint) error {
	if err := j.writable("checkpoint"); err != nil {
		return err
	}
	return j.checkpoint(cp)
}

// StartCheckpoint is Checkpoint on a goroutine of its own: it returns at
// once, so the checkpoint's encoding, CRC, write, fsyncs, rename and WAL
// truncation overlap whatever the caller does next. cp and the vectors it
// refers to stay lent to the journal until the checkpoint is joined, by
// WaitCheckpoint or by the next Append, Checkpoint, StartCheckpoint,
// Recover or Close, each of which waits for it first and fails with its
// error, if it failed, without doing anything else.
func (j *Journal) StartCheckpoint(cp *wire.JournalCheckpoint) error {
	if err := j.writable("checkpoint"); err != nil {
		return err
	}
	done := make(chan error, 1)
	j.pending = done
	go func() { done <- j.checkpoint(cp) }()
	return nil
}

// WaitCheckpoint joins the checkpoint StartCheckpoint left running, if
// any, and returns its error.
func (j *Journal) WaitCheckpoint() error {
	if j.pending == nil {
		return nil
	}
	err := <-j.pending
	j.pending = nil
	return err
}

func (j *Journal) checkpoint(cp *wire.JournalCheckpoint) error {
	start := time.Now()
	cp.Seq = j.seq
	f := &j.ckpt
	f.encode(cp)
	f.checksum()
	copy(j.ckptHdr[:], checkpointMagic)
	binary.BigEndian.PutUint32(j.ckptHdr[len(checkpointMagic):], uint32(f.n))
	binary.BigEndian.PutUint32(j.ckptHdr[len(checkpointMagic)+4:], f.sum)
	j.ckptSegs = append(append(j.ckptSegs[:0], j.ckptHdr[:]), f.segs...)
	if err := AtomicWriteFile(filepath.Join(j.dir, checkpointName), 0o644, j.ckptSegs...); err != nil {
		return err
	}
	if err := j.rewind(0); err != nil {
		j.err = fmt.Errorf("journal: truncating WAL after checkpoint: %w", err)
		return j.err
	}
	j.stats.checkpoints.Add(1)
	j.stats.checkpointNs.Add(uint64(time.Since(start)))
	return nil
}

// writable joins any checkpoint in flight and reports why the journal
// cannot take a write, if it cannot: it is closed, a write left its tail
// unknown, or a reserved batch is still open.
func (j *Journal) writable(op string) error {
	if err := j.WaitCheckpoint(); err != nil {
		return err
	}
	if j.wal == nil {
		return fmt.Errorf("journal: %s on a closed journal", op)
	}
	if j.err == nil && j.batch > 0 {
		return fmt.Errorf("journal: %s with a batch of %d frames still open", op, j.batch)
	}
	return j.err
}

// rewind cuts the WAL back to off, where the next frame goes.
func (j *Journal) rewind(off int64) error {
	if err := j.wal.Truncate(off); err != nil {
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
// fresh journal, keeping its NoSync and its Stats; the returned state is
// what survived. A checkpoint in flight is joined first.
func (j *Journal) Recover() (*Recovered, error) {
	if err := j.WaitCheckpoint(); err != nil {
		return nil, err
	}
	j.stopHelper()
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
	noSync, stats := j.NoSync, j.stats
	*j = *nj
	j.NoSync, j.stats = noSync, stats
	return j.recovered, nil
}

// Close joins any checkpoint in flight, then flushes and closes the WAL.
func (j *Journal) Close() error {
	firstErr := j.WaitCheckpoint()
	j.stopHelper()
	if j.wal == nil {
		return firstErr
	}
	if !j.NoSync {
		if err := j.wal.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := j.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	j.wal = nil
	return firstErr
}

// stopHelper ends the goroutine that sums appended frames, if one runs.
func (j *Journal) stopHelper() {
	if j.sums != nil {
		close(j.sums)
		j.sums, j.summed = nil, nil
	}
}

// Stats are a journal's running totals since Open, kept across Recover.
// They are what an operator watches the journal by: the write volume, how
// often it reached the disk, and the time each kind of write took.
type Stats struct {
	Frames        uint64  // WAL frames committed
	Bytes         uint64  // WAL bytes committed, frame headers included
	Fsyncs        uint64  // WAL fsyncs: one per committed batch unless NoSync
	Checkpoints   uint64  // checkpoints written
	AppendSec     float64 // wall time in Append, or a batch's Reserve, Fill and Commit calls, fsyncs included
	FsyncSec      float64 // wall time in the WAL fsyncs
	CheckpointSec float64 // wall time writing checkpoints, on whichever goroutine wrote them
}

// counters back Stats. They are atomic so that Stats may be read while a
// checkpoint runs on its own goroutine, or from a metrics scrape.
type counters struct {
	frames, bytes, fsyncs, checkpoints atomic.Uint64
	appendNs, fsyncNs, checkpointNs    atomic.Uint64
}

// Stats returns the journal's totals so far. Safe to call concurrently
// with the journal's writes; only successful writes are counted.
func (j *Journal) Stats() Stats {
	c := j.stats
	return Stats{
		Frames:        c.frames.Load(),
		Bytes:         c.bytes.Load(),
		Fsyncs:        c.fsyncs.Load(),
		Checkpoints:   c.checkpoints.Load(),
		AppendSec:     time.Duration(c.appendNs.Load()).Seconds(),
		FsyncSec:      time.Duration(c.fsyncNs.Load()).Seconds(),
		CheckpointSec: time.Duration(c.checkpointNs.Load()).Seconds(),
	}
}
