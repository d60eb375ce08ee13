package crashtest

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/sparkdb"
	"twigraph/internal/vfs"
)

// buildSparkDB creates a small social graph in the bitmap engine.
func buildSparkDB(t *testing.T) *sparkdb.DB {
	t.Helper()
	db := sparkdb.New(sparkdb.Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	follows, err := db.NewEdgeType("follows", true)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.NewAttribute(user, "uid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}
	var oids []uint64
	for i := 0; i < 6; i++ {
		o, err := db.NewNode(user)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttribute(o, uid, graph.IntValue(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
	}
	for i := range oids {
		if _, err := db.NewEdge(follows, oids[i], oids[(i+1)%len(oids)]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSparkImageCrashSafety drives the image save path through every
// fault the durability contract names: a completed save survives a
// crash; a save whose temp-file fsync fails (or that is torn
// mid-write) leaves the previous image untouched and loadable; and a
// bit flip in the stored image is rejected by the checksum, never
// silently loaded.
func TestSparkImageCrashSafety(t *testing.T) {
	const img = "/spark.img"
	db := buildSparkDB(t)

	t.Run("completed save survives crash", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
		db2, err := sparkdb.LoadFS(fs, img)
		if err != nil {
			t.Fatal(err)
		}
		if r := db2.CheckIntegrity(); !r.OK() {
			t.Fatalf("reloaded image has violations:\n%s", r)
		}
	})

	t.Run("failed fsync keeps old image", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		// A second save (say, after more writes) whose temp-file fsync
		// fails must report the failure and leave the old image intact.
		fs.AddFault(vfs.Fault{Op: vfs.OpSync, PathSubstr: ".tmp", Nth: 1, Kind: vfs.KindErr})
		if err := db.SaveFS(fs, img); err == nil {
			t.Fatal("save with failed fsync reported success")
		}
		fs.Crash()
		db2, err := sparkdb.LoadFS(fs, img)
		if err != nil {
			t.Fatalf("old image unloadable after failed save: %v", err)
		}
		if r := db2.CheckIntegrity(); !r.OK() {
			t.Fatalf("old image has violations:\n%s", r)
		}
	})

	t.Run("torn save keeps old image", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		fs.CrashDuringWrite(1, 100) // tear the temp-file body write
		db.SaveFS(fs, img)          // dies mid-write
		if !fs.Halted() {
			t.Skip("save used fewer writes than the crash point")
		}
		fs.Crash()
		db2, err := sparkdb.LoadFS(fs, img)
		if err != nil {
			t.Fatalf("old image unloadable after torn save: %v", err)
		}
		if r := db2.CheckIntegrity(); !r.OK() {
			t.Fatalf("old image has violations:\n%s", r)
		}
	})

	t.Run("bit flip detected by checksum", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		fs.AddFault(vfs.Fault{Op: vfs.OpRead, PathSubstr: img, Nth: 1, Kind: vfs.KindBitFlip, BitOffset: 203})
		_, err := sparkdb.LoadFS(fs, img)
		if err == nil {
			t.Fatal("corrupted image loaded without error")
		}
		if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "loading") {
			t.Errorf("unexpected error: %v", err)
		}
	})

	// The checksum is checked after the body is read, so a flipped count
	// must be caught before anything is sized from it: bit 40 of the
	// follows edge count asks for 2^40 endpoints.
	t.Run("flipped edge count rejected before allocation", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		image, err := vfs.ReadFile(fs, img)
		if err != nil {
			t.Fatal(err)
		}
		off := edgeCountOffset(t, image, "follows")
		if got := binary.LittleEndian.Uint64(image[off:]); got != 6 {
			t.Fatalf("edge count at offset %d reads %d, want 6", off, got)
		}
		fs.AddFault(vfs.Fault{Op: vfs.OpRead, PathSubstr: img, Nth: 1, Kind: vfs.KindBitFlip, BitOffset: int64(off)*8 + 40})
		_, err = sparkdb.LoadFS(fs, img)
		if err == nil {
			t.Fatal("image with a flipped edge count loaded without error")
		}
		if !strings.Contains(err.Error(), "edge count") {
			t.Errorf("unexpected error: %v", err)
		}
	})

	// Likewise a value OID: bit 39 of the first uid value's OID names
	// seq 2^39+1, which would size a column of 2^39 values.
	t.Run("flipped value OID rejected before allocation", func(t *testing.T) {
		fs := vfs.NewFaultFS()
		if err := db.SaveFS(fs, img); err != nil {
			t.Fatal(err)
		}
		image, err := vfs.ReadFile(fs, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(image) > 4096 {
			t.Fatalf("image is %d bytes, larger than one buffered read", len(image))
		}
		// The first user's OID (type 1, seq 1) appears as eight
		// little-endian bytes only as its uid value's OID.
		var oid [8]byte
		binary.LittleEndian.PutUint64(oid[:], 1<<40|1)
		if n := bytes.Count(image, oid[:]); n != 1 {
			t.Fatalf("first user OID stored %d times, want 1", n)
		}
		off := bytes.Index(image, oid[:])
		fs.AddFault(vfs.Fault{Op: vfs.OpRead, PathSubstr: img, Nth: 1, Kind: vfs.KindBitFlip, BitOffset: int64(off)*8 + 39})
		_, err = sparkdb.LoadFS(fs, img)
		if err == nil {
			t.Fatal("image with a flipped value OID loaded without error")
		}
		if !strings.Contains(err.Error(), "value OID") {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

// edgeCountOffset walks a v2 image's header and type entries up to the
// named edge type and returns the offset of its uint64 edge count. The
// image must fit in the fault layer's first read for a bit flip at that
// offset to land (the loader reads through a 4 KiB buffer).
func edgeCountOffset(t *testing.T, image []byte, edgeType string) int {
	t.Helper()
	le := binary.LittleEndian
	if len(image) > 4096 {
		t.Fatalf("image is %d bytes, larger than one buffered read", len(image))
	}
	off := 4 + 8 + 8 // magic, max objects, object count
	nTypes := int(le.Uint32(image[off:]))
	off += 4
	for i := 0; i < nTypes; i++ {
		nameLen := int(le.Uint32(image[off:]))
		name := string(image[off+4 : off+4+nameLen])
		isEdge := image[off+4+nameLen] != 0
		off += 4 + nameLen + 1 + 1 + 8 // name, isEdge, materialized, nextSeq
		nContainers := int(le.Uint32(image[off+4:]))
		off += 8 // bitmap magic, container count
		for c := 0; c < nContainers; c++ {
			card := int(le.Uint32(image[off+9:]))
			switch image[off+8] {
			case 0:
				off += 13 + 2*card
			case 1:
				off += 13 + 8192
			case 2:
				off += 13 + 4*card
			}
		}
		if name == edgeType {
			return off
		}
		if isEdge {
			t.Fatalf("type %q before %q: edge stream length not walkable", name, edgeType)
		}
	}
	t.Fatalf("no type %q in image", edgeType)
	return 0
}
