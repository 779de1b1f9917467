// Package segment is F²DB's durability layer: a write-ahead log of
// committed insert batches, one raw column per batch, whose sealed files
// are the segments (wal.go, record.go). It is defined over a small
// filesystem interface (this file) so the crash-recovery test harness can
// run the real code paths against an in-memory filesystem that models
// exactly what survives a power loss — written-but-unsynced data does not
// (memfs.go, fault.go).
//
// Durability contract: a WAL record is durable once its append returned
// under SyncAlways (the fsync happened before the engine applied the
// batch); a snapshot file is durable once WriteFileSync returned (data
// fsync, then rename, then parent-directory fsync). Everything else —
// unsynced appends, renames whose directory was not synced — is legally
// lost on a crash, and the recovery path treats its absence as normal.
package segment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the write side of a log or snapshot file. Writes append at the
// end; Sync makes everything written so far survive a crash.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the durability layer needs. OSFS backs
// production; MemFS backs the crash harness. Paths use forward slashes on
// both.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it when missing.
	Append(name string) (File, error)
	// ReadFile returns the full current contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the file names (not paths) directly under dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname's file. Durable only
	// after SyncDir on the parent.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name down to size bytes (the torn-tail repair at WAL
	// reopen).
	Truncate(name string, size int64) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making entry creations, renames
	// and removals durable.
	SyncDir(dir string) error
}

// OSFS is the production FS over the real filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// Append implements FS.
func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir implements FS. On platforms where directories cannot be fsynced
// (some filesystems return EINVAL) the error is swallowed: the rename was
// still issued and nothing stronger is available.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// WriteFileSync durably replaces dir/name with data: write to a temporary
// file in the same directory, fsync it, close, rename over name, fsync the
// directory. A crash at any point leaves either the old file or the new one
// — never a partial write, and never a rename that vanishes because the
// directory entry was still in the page cache (the bug this helper exists
// to fix: tmp+rename without either fsync can lose a "saved" snapshot on
// power loss).
func WriteFileSync(fs FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	final := filepath.Join(dir, name)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("segment: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("segment: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}
