package segment

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"testing"
)

func writeAllTo(t *testing.T, fs FS, name string, data []byte, sync bool) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSCrashSemantics(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}

	// Synced content and a synced directory: survives. An entry whose name
	// was synced but whose content never was keeps the name with whatever
	// content was last synced — nothing.
	writeAllTo(t, fs, "d/durable", []byte("stays"), true)
	writeAllTo(t, fs, "d/name-only", []byte("content vanishes"), false)
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// Created after the directory sync: written, even content-synced, but
	// the name is not durable — exactly why startFile and WriteFileSync
	// call SyncDir after creating or renaming.
	writeAllTo(t, fs, "d/no-dirsync", []byte("gone"), true)
	// An unsynced append on top of a durable prefix: the prefix survives.
	f, err := fs.Append("d/durable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" and more")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs.Crash()

	if _, err := fs.ReadFile("d/no-dirsync"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("file without directory sync after crash: %v", err)
	}
	if data, err := fs.ReadFile("d/name-only"); err != nil || len(data) != 0 {
		t.Fatalf("never-synced content after crash: %q, %v", data, err)
	}
	data, err := fs.ReadFile("d/durable")
	if err != nil || string(data) != "stays" {
		t.Fatalf("durable file after crash: %q, %v", data, err)
	}
}

func TestMemFSRenameWithoutDirSyncRevertsOnCrash(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	writeAllTo(t, fs, "d/old", []byte("v1"), true)
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("d/old", "d/new"); err != nil {
		t.Fatal(err)
	}
	// Live view sees the rename...
	if _, err := fs.ReadFile("d/new"); err != nil {
		t.Fatal(err)
	}
	// ...but without SyncDir a crash rolls it back.
	fs.Crash()
	if _, err := fs.ReadFile("d/new"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("unsynced rename survived crash: %v", err)
	}
	if data, err := fs.ReadFile("d/old"); err != nil || string(data) != "v1" {
		t.Fatalf("old name after crash: %q, %v", data, err)
	}
}

func TestMemFSClone(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	writeAllTo(t, fs, "d/f", []byte("one"), true)
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	c := fs.Clone()
	writeAllTo(t, fs, "d/f", []byte("two"), true)
	if data, _ := c.ReadFile("d/f"); string(data) != "one" {
		t.Fatalf("clone sees writes to the original: %q", data)
	}
	writeAllTo(t, c, "d/g", []byte("clone-only"), true)
	if _, err := fs.ReadFile("d/g"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("original sees writes to the clone: %v", err)
	}
}

func TestWriteFileSyncSurvivesCrash(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(fs, "d", "f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	data, err := fs.ReadFile("d/f")
	if err != nil || string(data) != "payload" {
		t.Fatalf("after crash: %q, %v", data, err)
	}
	names, _ := fs.ReadDir("d")
	if len(names) != 1 {
		t.Fatalf("stray files after WriteFileSync: %v", names)
	}
}

func TestWriteFileSyncReplaceKeepsOldOnFailure(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(fs, "d", "f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	// The replacement write dies 2 bytes in: the helper must report the
	// failure and leave the old file untouched, with no tmp debris.
	fs.SetWriteLimit(2)
	if err := WriteFileSync(fs, "d", "f", []byte("newer-content")); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted WriteFileSync: %v", err)
	}
	fs.SetWriteLimit(-1)
	if data, err := fs.ReadFile("d/f"); err != nil || string(data) != "old" {
		t.Fatalf("old file after failed replace: %q, %v", data, err)
	}
	names, _ := fs.ReadDir("d")
	if len(names) != 1 || names[0] != "f" {
		t.Fatalf("tmp debris after failed replace: %v", names)
	}
	// And a crash on top changes nothing: the old content was durable.
	fs.Crash()
	if data, err := fs.ReadFile("d/f"); err != nil || string(data) != "old" {
		t.Fatalf("old file after failed replace + crash: %q, %v", data, err)
	}
}

func TestFaultWriterModes(t *testing.T) {
	payload := []byte("0123456789")

	t.Run("kill-at", func(t *testing.T) {
		var buf bytes.Buffer
		fw := &FaultWriter{W: &buf, Mode: FaultKillAt, N: 4}
		n, err := fw.Write(payload)
		if n != 4 || !errors.Is(err, ErrInjected) {
			t.Fatalf("crossing write: n=%d err=%v", n, err)
		}
		if buf.String() != "0123" {
			t.Fatalf("persisted %q", buf.String())
		}
		// Dead after the kill: nothing further persists.
		if n, err := fw.Write([]byte("xx")); n != 0 || !errors.Is(err, ErrInjected) {
			t.Fatalf("post-kill write: n=%d err=%v", n, err)
		}
		if buf.String() != "0123" {
			t.Fatalf("post-kill persisted %q", buf.String())
		}
	})

	t.Run("torn", func(t *testing.T) {
		var buf bytes.Buffer
		fw := &FaultWriter{W: &buf, Mode: FaultTorn, N: 4}
		if n, err := fw.Write(payload); n != 4 || !errors.Is(err, ErrInjected) {
			t.Fatalf("crossing write: n=%d err=%v", n, err)
		}
		// The device recovered: later writes pass through.
		if n, err := fw.Write([]byte("AB")); n != 2 || err != nil {
			t.Fatalf("post-torn write: n=%d err=%v", n, err)
		}
		if buf.String() != "0123AB" {
			t.Fatalf("persisted %q", buf.String())
		}
	})

	t.Run("short", func(t *testing.T) {
		var buf bytes.Buffer
		fw := &FaultWriter{W: &buf, Mode: FaultShort, N: 6}
		n, err := fw.Write(payload)
		if n != 6 || err != nil {
			t.Fatalf("short write must return n < len(p) with nil error: n=%d err=%v", n, err)
		}
		if buf.String() != "012345" {
			t.Fatalf("persisted %q", buf.String())
		}
	})

	t.Run("flip-bit", func(t *testing.T) {
		var buf bytes.Buffer
		fw := &FaultWriter{W: &buf, Mode: FaultFlipBit, N: 3}
		if n, err := fw.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("flip write: n=%d err=%v", n, err)
		}
		want := append([]byte(nil), payload...)
		want[3] ^= 1
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("persisted %q, want %q", buf.Bytes(), want)
		}
	})
}

// TestFaultWriterFlipCaughtByCRC closes the loop between the two fault
// layers: a record written through a bit-flipping device must fail its CRC
// check on read.
func TestFaultWriterFlipCaughtByCRC(t *testing.T) {
	rec := AppendRecord(nil, recBatch, []byte("some batch payload"))
	for off := int64(0); off < int64(len(rec)); off++ {
		var buf bytes.Buffer
		fw := &FaultWriter{W: &buf, Mode: FaultFlipBit, N: off}
		if _, err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadRecord(buf.Bytes(), 0); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
}
