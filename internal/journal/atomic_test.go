package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/wire"
)

func TestAtomicWriteFileReplacesWholly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := AtomicWriteFile(path, 0o644, []byte("first")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := AtomicWriteFile(path, 0o644, []byte("second, "), nil, []byte("longer content")); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second, longer content" {
		t.Fatalf("content %q", got)
	}
	// No temporary residue survives a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
}

// TestPartialCheckpointWriteIsTypedError is the crash simulation of the
// atomic-write contract, from the attacker's side: a checkpoint written
// WITHOUT the atomic helper and cut mid-write (what a crash does to a
// naive save path) must reload as the typed ErrCorrupt — never as garbage
// weights. The atomic helper makes this state unreachable; the loader
// still refuses it defensively.
func TestPartialCheckpointWriteIsTypedError(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	if err := j.Checkpoint(&wire.JournalCheckpoint{
		NextRound: 5, Version: 4, Weights: []float64{1, 2, 3, 4, 5, 6, 7, 8},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(dir, checkpointName)
	whole, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must be refused with the typed error.
	for _, cut := range []int{0, 4, len(checkpointMagic), len(checkpointMagic) + 8, len(whole) / 2, len(whole) - 1} {
		if err := os.WriteFile(cpPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: want ErrCorrupt, got %v", cut, err)
		}
	}
}

// TestDirectoryFsyncErrorsSurface: a directory fsync that fails with EIO
// fails AtomicWriteFile and Checkpoint — the rename it was to make durable
// may not survive — while EINVAL and ENOTSUP, what filesystems that cannot
// fsync a directory answer, are tolerated. At the parent every directory
// fsync error was dropped.
func TestDirectoryFsyncErrorsSurface(t *testing.T) {
	orig := dirSync
	defer func() { dirSync = orig }()
	for _, c := range []struct {
		errno syscall.Errno
		fails bool
	}{{syscall.EIO, true}, {syscall.EINVAL, false}, {syscall.ENOTSUP, false}} {
		dirSync = func(d *os.File) error { return &os.PathError{Op: "sync", Path: d.Name(), Err: c.errno} }
		dir := t.TempDir()
		err := AtomicWriteFile(filepath.Join(dir, "model.ckpt"), 0o644, []byte("weights"))
		if c.fails != errors.Is(err, c.errno) || !c.fails && err != nil {
			t.Errorf("%v: AtomicWriteFile returned %v", c.errno, err)
		}
		j := mustOpen(t, dir)
		err = j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: []float64{1, 2}})
		if c.fails != errors.Is(err, c.errno) || !c.fails && err != nil {
			t.Errorf("%v: Checkpoint returned %v", c.errno, err)
		}
		j.Close()
	}
}
