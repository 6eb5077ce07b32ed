// Fixture for the commitpath rule, loaded under an import path
// containing internal/store: durable-file writes must reach the
// write-temp → fsync → rename commit seam or a rollback. A rename of a
// never-synced temp (the "fsync deleted from writeFileAtomic"
// regression), a sync on only one branch, a write that can reach the
// exit uncommitted, a write excused only by another file's deferred
// Close or by a removal that does not name the file, and a raw rename with
// no preceding sync all fire; the suppressed move stays silent.
package store

import (
	"os"
	"path/filepath"
)

// writeFrameNoSync mirrors the store's writeFileAtomic with the fsync
// deleted: the rename commits a name to content the disk may not hold.
func writeFrameNoSync(dir, name string, payload []byte) (err error) {
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
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, filepath.Join(dir, name)) // want: renamed file never synced
}

// writeFrameBranchSync syncs only when durable is set: the other path
// renames dirty content.
func writeFrameBranchSync(dir string, payload []byte, durable bool) error {
	tmp, err := os.CreateTemp(dir, "frame-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		return err
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, "frame.bin")) // want: dirty on the !durable path
}

// appendLog writes a durable file and lets every path reach the exit
// without a sync, a removal, or a deferred rollback.
func appendLog(dir string, line []byte) error {
	f, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil { // want: write can reach exit uncommitted
		return err
	}
	return f.Close()
}

// promote renames with no fsync anywhere in the function.
func promote(oldPath, newPath string) error {
	return os.Rename(oldPath, newPath) // want: rename without a preceding sync
}

// archive moves an already-durable file; the reasoned ignore is the
// sanctioned escape hatch for that.
func archive(oldPath, newPath string) error {
	//opvet:ignore commitpath moves an already-committed file; content was fsynced when written
	return os.Rename(oldPath, newPath)
}

// copyOut carries one deferred cleanup, for the read-only input; the output
// it writes has none, so the input's Close excuses nothing.
func copyOut(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]byte, 16)
	if _, err := in.Read(buf); err != nil {
		return err
	}
	if _, err := out.Write(buf); err != nil { // want: write can reach exit uncommitted
		return err
	}
	return out.Close()
}

// scratchByText removes a path that reads like the one it created but is
// computed by a second call: only a removal of the same variable counts.
func scratchByText(dir, name string, payload []byte) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(filepath.Join(dir, name)) }()
	if _, err := f.Write(payload); err != nil { // want: write can reach exit uncommitted
		return err
	}
	return f.Close()
}

// scratchRemoveDir removes the directory a temp file was created in with
// Remove, which fails while the file is still in it.
func scratchRemoveDir(dir string, payload []byte) error {
	f, err := os.CreateTemp(dir, "scratch-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(dir) }()
	if _, err := f.Write(payload); err != nil { // want: write can reach exit uncommitted
		return err
	}
	return f.Close()
}
