// Package iofault is the narrow seam between the persistence layer and the
// operating system: a small VFS interface covering exactly the file
// operations the store performs, one passthrough implementation backed by
// the real filesystem, and a deterministic fault injector that can fail,
// tear, or halt the Nth write operation. Production code always runs on the
// passthrough; tests sweep the injector across every enumerated write point
// to prove crash consistency.
package iofault

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the persistence layer uses. *os.File
// satisfies it directly.
type File interface {
	io.Reader
	io.Writer
	io.WriterAt
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
}

// FS is the file-system access layer. Implementations must be safe for
// concurrent use by multiple goroutines.
type FS interface {
	// OpenFile opens name with the given flag and permissions.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new unique temp file in dir (os.CreateTemp
	// pattern semantics), open for reading and writing.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat stats a path.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and creates in it durable.
	SyncDir(name string) error
}

// ReadFile reads the whole of name from fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose on close
	return io.ReadAll(f)
}

// osFS is the passthrough implementation over the real filesystem.
type osFS struct{}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error is the one worth reporting
		return err
	}
	return d.Close()
}
