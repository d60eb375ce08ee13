package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	f, err := Create(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 11 {
		t.Fatalf("Size = %d, %v; want 11", sz, err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt = %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(path + ".2"); err != nil {
		t.Logf("SyncDir best-effort: %v", err)
	}
	data, err := ReadFile(OS, path+".2")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if _, err := ReadFile(OS, filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want ErrNotExist", err)
	}
}

func TestFaultFSCrashDiscardsUnsynced(t *testing.T) {
	ffs := NewFaultFS()
	f, err := Create(ffs, "/db/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("synced"), 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte(" plus unsynced tail"), 6)
	if got := ffs.VolatileLen("/db/a.bin"); got != 25 {
		t.Fatalf("volatile len = %d, want 25", got)
	}

	// A second file never synced at all.
	g, _ := Create(ffs, "/db/b.bin")
	g.WriteAt([]byte("ephemeral"), 0)

	ffs.Crash()

	data, err := ReadFile(ffs, "/db/a.bin")
	if err != nil || string(data) != "synced" {
		t.Fatalf("after crash a.bin = %q, %v; want \"synced\"", data, err)
	}
	if _, err := ReadFile(ffs, "/db/b.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("never-synced file should vanish on crash, got %v", err)
	}
}

func TestFaultFSRenameWithoutSyncPublishesEmpty(t *testing.T) {
	// The classic save-image bug: write tmp, rename without fsync, crash.
	ffs := NewFaultFS()
	f, _ := Create(ffs, "/img.tmp")
	f.Write([]byte("full image"))
	f.Close()
	if err := ffs.Rename("/img.tmp", "/img"); err != nil {
		t.Fatal(err)
	}
	if err := ffs.SyncDir("/img"); err != nil {
		t.Fatal(err)
	}
	ffs.Crash()
	data, err := ReadFile(ffs, "/img")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("unsynced renamed image survived crash with %d bytes", len(data))
	}

	// With the fsync-before-rename discipline the image survives intact.
	ffs2 := NewFaultFS()
	f2, _ := Create(ffs2, "/img.tmp")
	f2.Write([]byte("full image"))
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	ffs2.Rename("/img.tmp", "/img")
	if err := ffs2.SyncDir("/img"); err != nil {
		t.Fatal(err)
	}
	ffs2.Crash()
	data, err = ReadFile(ffs2, "/img")
	if err != nil || string(data) != "full image" {
		t.Fatalf("synced renamed image = %q, %v", data, err)
	}
}

// TestFaultFSRenameRevertsWithoutSyncDir: a rename over a durable file
// is undone by a crash unless its directory was synced; a SyncDir of
// another directory does not count.
func TestFaultFSRenameRevertsWithoutSyncDir(t *testing.T) {
	ffs := NewFaultFS()
	if err := WriteFileAtomic(ffs, "/db/img", func(w io.Writer) error {
		_, err := w.Write([]byte("old image"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	f, _ := Create(ffs, "/db/img.tmp")
	f.Write([]byte("new image"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := ffs.Rename("/db/img.tmp", "/db/img"); err != nil {
		t.Fatal(err)
	}
	if got := ffs.DurableLen("/db/img"); got != len("old image") {
		t.Fatalf("durable len before SyncDir = %d, want the old image's %d", got, len("old image"))
	}
	if err := ffs.SyncDir("/other/x"); err != nil {
		t.Fatal(err)
	}
	ffs.Crash()
	data, err := ReadFile(ffs, "/db/img")
	if err != nil || string(data) != "old image" {
		t.Fatalf("after crash img = %q, %v; want the old image", data, err)
	}
	if data, err := ReadFile(ffs, "/db/img.tmp"); err != nil || string(data) != "new image" {
		t.Fatalf("after crash img.tmp = %q, %v; want the synced new image back", data, err)
	}
}

func TestFaultFSFailNthWrite(t *testing.T) {
	ffs := NewFaultFS()
	ffs.AddFault(Fault{Op: OpWrite, Nth: 2, Kind: KindErr})
	f, _ := Create(ffs, "/f")
	if _, err := f.WriteAt([]byte("one"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("two"), 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd write err = %v, want ErrInjected", err)
	}
	if _, err := f.WriteAt([]byte("three"), 3); err != nil {
		t.Fatalf("fault should disarm after firing: %v", err)
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	ffs := NewFaultFS()
	ffs.AddFault(Fault{Op: OpWrite, Nth: 1, Kind: KindTorn, Keep: 4})
	f, _ := Create(ffs, "/f")
	n, err := f.WriteAt([]byte("abcdefgh"), 0)
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %d, %v; want 4, ErrInjected", n, err)
	}
	if got := ffs.VolatileLen("/f"); got != 4 {
		t.Fatalf("volatile len after torn write = %d, want 4", got)
	}
}

func TestFaultFSStickySyncFailure(t *testing.T) {
	ffs := NewFaultFS()
	ffs.AddFault(Fault{Op: OpSync, Nth: 1, Kind: KindErr})
	f, _ := Create(ffs, "/f")
	f.WriteAt([]byte("data"), 0)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	// Sticks: later syncs fail too and durable state never advances.
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after failed sync = %v, want sticky ErrInjected", err)
	}
	if got := ffs.DurableLen("/f"); got != -1 {
		t.Fatalf("durable len = %d, want -1 (nothing durable)", got)
	}
	if ffs.SyncFailures() != 2 {
		t.Fatalf("SyncFailures = %d, want 2", ffs.SyncFailures())
	}
}

func TestFaultFSBitFlipOnRead(t *testing.T) {
	ffs := NewFaultFS()
	f, _ := Create(ffs, "/f")
	f.WriteAt([]byte{0x00, 0x00}, 0)
	ffs.AddFault(Fault{Op: OpRead, Nth: 1, Kind: KindBitFlip, BitOffset: 9})
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x00 || buf[1] != 0x02 {
		t.Fatalf("bit flip produced % x, want 00 02", buf)
	}
	// Next read is clean.
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("second read should be clean, got % x", buf)
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	ffs := NewFaultFS()
	ffs.AddFault(Fault{Op: OpWrite, Nth: 1, Kind: KindENOSPC, Keep: 2})
	f, _ := Create(ffs, "/f")
	n, err := f.WriteAt([]byte("abcdef"), 0)
	if n != 2 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("ENOSPC write = %d, %v", n, err)
	}
}

func TestFaultFSCrashAfterHalts(t *testing.T) {
	ffs := NewFaultFS()
	f, _ := Create(ffs, "/f")
	ffs.CrashAfter(OpWrite, 2)
	if _, err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); err != nil {
		t.Fatalf("boundary write should complete: %v", err)
	}
	if !ffs.Halted() {
		t.Fatal("fs should be halted after boundary")
	}
	if _, err := f.WriteAt([]byte("c"), 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-halt write = %v, want ErrCrashed", err)
	}
	if _, err := Open(ffs, "/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-halt open = %v, want ErrCrashed", err)
	}
	ffs.Crash()
	if ffs.Halted() {
		t.Fatal("Crash should clear the halt")
	}
}

func TestFaultFSCrashDuringWriteTearsIt(t *testing.T) {
	ffs := NewFaultFS()
	f, _ := Create(ffs, "/f")
	f.WriteAt([]byte("12345678"), 0)
	f.Sync()
	ffs.CrashDuringWrite(1, 3)
	n, err := f.WriteAt([]byte("ABCDEFGH"), 0)
	if n != 3 || !errors.Is(err, ErrCrashed) {
		t.Fatalf("fatal write = %d, %v; want 3, ErrCrashed", n, err)
	}
	if !ffs.Halted() {
		t.Fatal("fs should be halted")
	}
	ffs.Crash()
	data, _ := ReadFile(ffs, "/f")
	if string(data) != "12345678" {
		t.Fatalf("after crash = %q; volatile tear must not survive", data)
	}
}

func TestFaultFSEOFSemantics(t *testing.T) {
	ffs := NewFaultFS()
	f, _ := Create(ffs, "/f")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 8)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("short read = %d, %v; want 3, io.EOF (os.File semantics)", n, err)
	}
	n, err = f.ReadAt(buf, 10)
	if n != 0 || err != io.EOF {
		t.Fatalf("read past EOF = %d, %v; want 0, io.EOF", n, err)
	}
}

func TestFaultFSOpenFlags(t *testing.T) {
	ffs := NewFaultFS()
	if _, err := ffs.OpenFile("/nope", os.O_RDWR, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open missing without O_CREATE = %v", err)
	}
	f, _ := Create(ffs, "/f")
	f.Write([]byte("xyz"))
	f.Close()
	if _, err := ffs.OpenFile("/f", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("O_EXCL on existing = %v", err)
	}
	g, err := Create(ffs, "/f") // O_TRUNC
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("O_TRUNC left %d bytes", sz)
	}
	if err := ffs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ffs, "/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open removed = %v", err)
	}
}

// TestWriteFileAtomicFailureKeepsOld: a failed write or fsync leaves
// the old file as it was and no temp file behind.
func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	ffs := NewFaultFS()
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := w.Write([]byte(s))
			return err
		}
	}
	if err := WriteFileAtomic(ffs, "/d/f", write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFileAtomic(ffs, "/d/f", func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's", err)
	}
	ffs.AddFault(Fault{Op: OpSync, PathSubstr: ".tmp", Nth: 1, Kind: KindErr})
	if err := WriteFileAtomic(ffs, "/d/f", write("new")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := ffs.VolatileLen("/d/f.tmp"); got != -1 {
		t.Fatalf("temp file left behind (%d bytes)", got)
	}
	if data, err := ReadFile(ffs, "/d/f"); err != nil || string(data) != "old" {
		t.Fatalf("f = %q, %v; want \"old\"", data, err)
	}
}
