// Package vfs abstracts the filesystem operations the storage layers
// perform — open/create, rename, remove, plus positional file I/O with
// explicit sync — so tests can substitute a deterministic fault-injecting
// implementation (FaultFS) for the operating system. Production code
// always runs on OS, the passthrough over package os; nothing in the
// default path changes behaviour.
package vfs

import (
	"bufio"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the handle surface the engines need: positional reads and
// writes for the page cache and WAL, sequential reads and writes for
// image save/load, plus Sync/Truncate/Close and a Size query replacing
// Stat.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
	Size() (int64, error)
}

// FS is the filesystem surface. Paths follow os semantics; flags are the
// standard os.O_* values.
type FS interface {
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir flushes directory metadata (renames, creates) for path's
	// directory entry updates. Best-effort on platforms where directory
	// fsync is not meaningful.
	SyncDir(path string) error
}

// OS is the passthrough implementation over package os, the default
// everywhere.
var OS FS = osFS{}

// Create opens path for read/write, creating it if absent and
// truncating it otherwise (os.Create semantics).
func Create(fsys FS, path string) (File, error) {
	return fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open opens path read-only (os.Open semantics).
func Open(fsys FS, path string) (File, error) {
	return fsys.OpenFile(path, os.O_RDONLY, 0)
}

// ReadFile reads the whole of path, mirroring os.ReadFile. A missing
// file satisfies errors.Is(err, fs.ErrNotExist).
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// WriteFile writes data to path, creating or truncating it, mirroring
// os.WriteFile.
func WriteFile(fsys FS, path string, data []byte, perm fs.FileMode) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic replaces path with the bytes write produces. It
// writes them to path+".tmp" through a buffer, fsyncs and closes that
// file, renames it over path and fsyncs the directory, so a crash leaves
// either the old file or the new one, never an empty or torn mix. On
// failure before the rename the temp file is removed.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := Create(fsys, tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp) // best effort: err is what the caller needs
		return err
	}
	return fsys.SyncDir(path)
}

// ---------- os passthrough ----------

type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}

// SyncDir fsyncs the directory containing path so a preceding rename is
// durable. Errors are returned for the caller to treat as best-effort:
// some filesystems reject fsync on directories.
func (osFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type osFile struct {
	*os.File
}

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
