// True-negative fixture for commitpath: the full write-temp → fsync →
// rename seam, a rollback-guarded writer, an explicit-removal error
// path, read-only file use, and scratch files removed by their own path or
// directory. Loaded under an import path containing
// internal/store.
package storeclean

import (
	"os"
	"path/filepath"
)

// writeFileAtomic is the canonical seam, as internal/store implements
// it: temp file, write, fsync, close, rename, with a deferred rollback
// on the error path.
func writeFileAtomic(dir, name string, payload []byte) (err error) {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(payload); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, filepath.Join(dir, name))
}

// writeSynced never renames; the write is post-dominated by the fsync.
func writeSynced(path string, payload []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readOnly touches no durable state.
func readOnly(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	buf := make([]byte, 16)
	return f.Read(buf)
}

// copyScratch reads an input and writes a scratch file; each carries its
// own deferred cleanup, the scratch file's removing the path it was created
// from.
func copyScratch(src, scratch string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }()
	out, err := os.Create(scratch)
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(scratch) }()
	buf := make([]byte, 16)
	if _, err := in.Read(buf); err != nil {
		return err
	}
	if _, err := out.Write(buf); err != nil {
		return err
	}
	return out.Close()
}

// scratchInDir writes a temp file into a directory it owns; the deferred
// RemoveAll of that directory removes the file with it.
func scratchInDir(dir string, payload []byte) error {
	f, err := os.CreateTemp(dir, "scratch-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if _, err := f.Write(payload); err != nil {
		return err
	}
	return f.Close()
}
