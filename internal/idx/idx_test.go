package idx

import (
	"path/filepath"
	"sync"
	"testing"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

func TestHashIndexAddLookupRemove(t *testing.T) {
	ix := NewHashIndex("")
	ix.Add(graph.IntValue(531), 10)
	ix.Add(graph.IntValue(531), 11)
	ix.Add(graph.StringValue("531"), 99) // distinct kind must not collide

	b := ix.Lookup(graph.IntValue(531))
	if b == nil || b.Cardinality() != 2 {
		t.Fatalf("Lookup = %v", b)
	}
	if got := ix.Lookup(graph.StringValue("531")); got == nil || !got.Contains(99) || got.Cardinality() != 1 {
		t.Errorf("string posting = %v", got)
	}
	if id, ok := ix.LookupOne(graph.IntValue(531)); !ok || id != 10 {
		t.Errorf("LookupOne = %d,%v", id, ok)
	}
	ix.Remove(graph.IntValue(531), 10)
	ix.Remove(graph.IntValue(531), 11)
	if ix.Lookup(graph.IntValue(531)) != nil {
		t.Error("posting not removed when empty")
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.Lookups() != 4 {
		t.Errorf("Lookups = %d", ix.Lookups())
	}
}

func TestHashIndexLookupMissing(t *testing.T) {
	ix := NewHashIndex("")
	if ix.Lookup(graph.IntValue(1)) != nil {
		t.Error("missing value returned postings")
	}
	if _, ok := ix.LookupOne(graph.IntValue(1)); ok {
		t.Error("LookupOne found missing value")
	}
}

func TestHashIndexPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "uid.idx")
	ix := NewHashIndex(path)
	ix.Add(graph.IntValue(1), 100)
	ix.Add(graph.IntValue(1), 101)
	ix.Add(graph.StringValue("#go"), 7)
	ix.Add(graph.FloatValue(2.5), 8)
	ix.Add(graph.BoolValue(true), 9)
	if err := ix.Sync(); err != nil {
		t.Fatal(err)
	}

	ix2, err := OpenHashIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := ix2.Lookup(graph.IntValue(1)); b == nil || b.Cardinality() != 2 {
		t.Errorf("int posting after reload = %v", b)
	}
	if b := ix2.Lookup(graph.StringValue("#go")); b == nil || !b.Contains(7) {
		t.Errorf("string posting after reload = %v", b)
	}
	if b := ix2.Lookup(graph.FloatValue(2.5)); b == nil || !b.Contains(8) {
		t.Errorf("float posting after reload = %v", b)
	}
	if b := ix2.Lookup(graph.BoolValue(true)); b == nil || !b.Contains(9) {
		t.Errorf("bool posting after reload = %v", b)
	}
	// ForEach sees all four distinct values after reload.
	n := 0
	ix2.ForEach(func(graph.Value, *bitmap.Bitmap) bool { n++; return true })
	if n != 4 {
		t.Errorf("ForEach visited %d values, want 4", n)
	}
}

func TestHashIndexForEach(t *testing.T) {
	ix := NewHashIndex("")
	ix.Add(graph.IntValue(1), 1)
	ix.Add(graph.IntValue(2), 2)
	ix.Add(graph.IntValue(3), 3)
	n := 0
	ix.ForEach(func(v graph.Value, b *bitmap.Bitmap) bool {
		if b.Cardinality() != 1 {
			t.Errorf("posting for %v has cardinality %d", v, b.Cardinality())
		}
		n++
		return n < 2 // early stop works
	})
	if n != 2 {
		t.Errorf("visited %d", n)
	}
}

func TestHashIndexSelect(t *testing.T) {
	ix := NewHashIndex("")
	for id := uint64(1); id <= 20; id++ {
		ix.Add(graph.IntValue(int64(id%5)), id)
	}
	ix.Add(graph.StringValue("x"), 21)
	ix.Add(graph.FloatValue(3.5), 22)
	over2 := ix.Select(ix.Len(), func(v graph.Value) bool {
		return v.Kind() != graph.KindString && v.Compare(graph.IntValue(2)) > 0
	})
	want := bitmap.New()
	for id := uint64(1); id <= 20; id++ {
		if id%5 > 2 {
			want.Add(id)
		}
	}
	want.Add(22)
	if !over2.Equal(want) {
		t.Errorf("Select(> 2) = %v, want %v", over2, want)
	}
	// The result is the caller's: mutating it leaves the postings alone.
	over2.Add(99)
	if got := ix.Lookup(graph.IntValue(3)); got.Contains(99) {
		t.Error("Select result aliases a posting set")
	}
	if got := ix.Select(ix.Len(), func(graph.Value) bool { return false }); got == nil || !got.IsEmpty() {
		t.Errorf("Select(none) = %v, want an empty bitmap", got)
	}
	// An index with more distinct values than the caller allows selects
	// nothing.
	if got := ix.Select(ix.Len()-1, func(graph.Value) bool { return true }); got != nil {
		t.Errorf("Select over the value limit = %v, want nil", got)
	}
}

// TestHashIndexSelectConcurrent runs Select against writers that move
// ids between values, adding each id under its new value before
// removing it from the old one: every snapshot then holds every id.
func TestHashIndexSelectConcurrent(t *testing.T) {
	const ids, moves = 200, 2000
	ix := NewHashIndex("")
	for id := uint64(0); id < ids; id++ {
		ix.Add(graph.IntValue(0), id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := make(map[uint64]int64) // this writer's ids: id%2 == w
			for i := 0; i < moves; i++ {
				id := uint64((i*2 + w) % ids)
				v := int64(i%10 + 1)
				ix.Add(graph.IntValue(v), id)
				if cur[id] != v {
					ix.Remove(graph.IntValue(cur[id]), id)
				}
				cur[id] = v
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < moves/10; i++ {
				all := ix.Select(ids, func(graph.Value) bool { return true })
				if n := all.Cardinality(); n != ids {
					t.Errorf("Select(all) saw %d ids, want %d", n, ids)
					return
				}
				some := ix.Select(ids, func(v graph.Value) bool { return v.Int() > 5 })
				if !bitmap.AndNot(some, all).IsEmpty() {
					t.Error("Select(> 5) holds an id outside Select(all)")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOpenHashIndexMissingFile(t *testing.T) {
	ix, err := OpenHashIndex(filepath.Join(t.TempDir(), "nope.idx"))
	if err != nil || ix.Len() != 0 {
		t.Errorf("ix=%v err=%v", ix, err)
	}
}

func TestLabelScan(t *testing.T) {
	ls := NewLabelScan("")
	ls.Add(1, 10)
	ls.Add(1, 11)
	ls.Add(2, 12)
	if ls.Count(1) != 2 || ls.Count(2) != 1 || ls.Count(3) != 0 {
		t.Errorf("counts = %d,%d,%d", ls.Count(1), ls.Count(2), ls.Count(3))
	}
	if b := ls.Nodes(1); b == nil || !b.Contains(10) || !b.Contains(11) {
		t.Errorf("Nodes(1) = %v", b)
	}
	ls.Remove(1, 10)
	if ls.Count(1) != 1 {
		t.Errorf("after Remove Count(1) = %d", ls.Count(1))
	}
	ls.Remove(9, 1) // removing from an unknown label is a no-op
}

func TestLabelScanPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.idx")
	ls := NewLabelScan(path)
	ls.Add(1, 100)
	ls.Add(2, 200)
	if err := ls.Sync(); err != nil {
		t.Fatal(err)
	}
	ls2, err := OpenLabelScan(path)
	if err != nil {
		t.Fatal(err)
	}
	if ls2.Count(1) != 1 || !ls2.Nodes(2).Contains(200) {
		t.Error("reload mismatch")
	}
	// Missing file opens empty.
	ls3, err := OpenLabelScan(filepath.Join(t.TempDir(), "none.idx"))
	if err != nil || ls3.Count(1) != 0 {
		t.Errorf("missing file: %v %d", err, ls3.Count(1))
	}
}

func TestMemoryOnlySyncIsNoop(t *testing.T) {
	if err := NewHashIndex("").Sync(); err != nil {
		t.Error(err)
	}
	if err := NewLabelScan("").Sync(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotSyncSurvivesCrash replaces an older label-scan and index
// snapshot with Sync, crashes, and reloads: the new contents must be
// read back. Sync returning is a checkpoint's promise that the snapshot
// is durable, so its rename must be made durable too (the directory
// fsync), not only the temp file's bytes.
func TestSnapshotSyncSurvivesCrash(t *testing.T) {
	ffs := vfs.NewFaultFS()
	ls := NewLabelScanFS(ffs, "/db/labels.idx")
	ix := NewHashIndexFS(ffs, "/db/index-1-1.idx")
	ls.Add(1, 10)
	ix.Add(graph.IntValue(1), 10)
	for _, s := range []interface{ Sync() error }{ls, ix} {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	ls.Add(1, 11)
	ix.Add(graph.IntValue(2), 11)
	for _, s := range []interface{ Sync() error }{ls, ix} {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Crash()

	ls2, err := OpenLabelScanFS(ffs, "/db/labels.idx")
	if err != nil {
		t.Fatal(err)
	}
	if n := ls2.Count(1); n != 2 {
		t.Errorf("label scan after crash holds %d nodes, want the new snapshot's 2", n)
	}
	ix2, err := OpenHashIndexFS(ffs, "/db/index-1-1.idx")
	if err != nil {
		t.Fatal(err)
	}
	if b := ix2.Lookup(graph.IntValue(2)); b == nil || !b.Contains(11) {
		t.Errorf("index after crash lacks the new snapshot's entry 2 -> 11: %v", b)
	}
}
