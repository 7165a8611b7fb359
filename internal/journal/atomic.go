package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// AtomicWriteFile writes the concatenation of segs to path so that a crash
// at any instant leaves either the old file or the new file, never a torn
// mixture: the bytes go to a same-directory temporary file, which is
// fsynced, renamed over path, and sealed with a directory fsync so the
// rename itself is durable. It is the single write primitive for every
// checkpoint in this repository — non-atomic save paths are the bug class
// this helper retires. The segments are written where they lie, so a
// caller with a header and a model need not join them first.
func AtomicWriteFile(path string, perm os.FileMode, segs ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temporary; the destination is
	// untouched until the rename.
	fail := func(stage string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("journal: atomic write %s: %s: %w", path, stage, err)
	}
	if err := writeAll(tmp, segs); err != nil {
		return fail("write", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: atomic write %s: rename: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Filesystems that cannot fsync a directory (some CI overlays)
// answer EINVAL or ENOTSUP, which are tolerated: the rename is still
// atomic, just not yet durable. Any other error — EIO above all — means
// the rename may not survive, and is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
	}
	defer d.Close()
	if err := dirSync(d); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("directory fsync: %w", err)
	}
	return nil
}

// dirSync fsyncs an open directory; tests substitute one that fails.
var dirSync = (*os.File).Sync
