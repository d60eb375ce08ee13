// Package idx implements the index structures used by the Neo4j-analog
// engine: a hash index (the schema indexes the paper creates on "all
// unique node identifiers" after import), which serves equality lookups
// and, through Select, any predicate over its distinct values, and a
// label scan store mapping each node label to the set of its nodes.
//
// Indexes are held in memory and snapshot to disk on Sync/Close; on open
// the snapshot is loaded if present. This mirrors the operational shape
// the paper describes (indexes built after bulk import, then reused).
package idx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

// HashIndex maps property values to sets of entity ids. Lookup is O(1)
// in the number of distinct values; each posting set is a compressed
// bitmap. Safe for concurrent use: lookups return snapshot copies, so
// readers never observe a posting set mid-mutation.
type HashIndex struct {
	mu       sync.RWMutex
	fsys     vfs.FS
	path     string
	postings map[string]posting // Value.Key() -> the value and its ids
	lookups  atomic.Uint64
}

// posting is one distinct indexed value and the ids indexed under it.
type posting struct {
	val graph.Value
	ids *bitmap.Bitmap
}

// NewHashIndex creates an index that snapshots to path (empty path means
// memory-only).
func NewHashIndex(path string) *HashIndex {
	return NewHashIndexFS(vfs.OS, path)
}

// NewHashIndexFS is NewHashIndex on an explicit filesystem.
func NewHashIndexFS(fsys vfs.FS, path string) *HashIndex {
	return &HashIndex{
		fsys:     fsys,
		path:     path,
		postings: make(map[string]posting),
	}
}

// OpenHashIndex loads the snapshot at path if it exists.
func OpenHashIndex(path string) (*HashIndex, error) {
	return OpenHashIndexFS(vfs.OS, path)
}

// OpenHashIndexFS is OpenHashIndex on an explicit filesystem.
func OpenHashIndexFS(fsys vfs.FS, path string) (*HashIndex, error) {
	ix := NewHashIndexFS(fsys, path)
	f, err := vfs.Open(fsys, path)
	if err != nil {
		if os.IsNotExist(err) {
			return ix, nil
		}
		return nil, err
	}
	defer f.Close()
	if err := ix.load(bufio.NewReader(f)); err != nil {
		return nil, fmt.Errorf("idx: loading %s: %w", path, err)
	}
	return ix, nil
}

// Add indexes id under v.
func (ix *HashIndex) Add(v graph.Value, id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	k := v.Key()
	p, ok := ix.postings[k]
	if !ok {
		p = posting{val: v, ids: bitmap.New()}
		ix.postings[k] = p
	}
	p.ids.Add(id)
}

// Remove drops id from v's posting set.
func (ix *HashIndex) Remove(v graph.Value, id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	k := v.Key()
	if p, ok := ix.postings[k]; ok {
		p.ids.Remove(id)
		if p.ids.IsEmpty() {
			delete(ix.postings, k)
		}
	}
}

// Lookup returns a snapshot of the posting set for v, or nil when
// absent. The caller owns the returned bitmap.
func (ix *HashIndex) Lookup(v graph.Value) *bitmap.Bitmap {
	ix.lookups.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if p, ok := ix.postings[v.Key()]; ok {
		return p.ids.Clone()
	}
	return nil
}

// Select returns the union of the posting sets of every distinct value
// for which keep holds, as a new bitmap the caller owns, or nil when
// the index holds more than maxValues distinct values. One read lock
// covers the whole selection, so the union is a snapshot. keep runs
// under that lock and must not call into the index.
func (ix *HashIndex) Select(maxValues int, keep func(graph.Value) bool) *bitmap.Bitmap {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.postings) > maxValues {
		return nil
	}
	var sets []*bitmap.Bitmap
	for _, p := range ix.postings {
		if keep(p.val) {
			sets = append(sets, p.ids)
		}
	}
	return bitmap.OrMany(sets...)
}

// LookupOne returns an arbitrary (lowest) id indexed under v, for unique
// indexes.
func (ix *HashIndex) LookupOne(v graph.Value) (uint64, bool) {
	b := ix.Lookup(v)
	if b == nil {
		return 0, false
	}
	return b.Min()
}

// Len returns the number of distinct indexed values.
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Lookups returns how many Lookup calls have been served.
func (ix *HashIndex) Lookups() uint64 { return ix.lookups.Load() }

// ForEach visits every (value, postings) pair in unspecified order,
// holding the read lock; fn must not mutate the index or the bitmaps.
func (ix *HashIndex) ForEach(fn func(v graph.Value, ids *bitmap.Bitmap) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, p := range ix.postings {
		if !fn(p.val, p.ids) {
			return
		}
	}
}

// Sync replaces the snapshot at the index path atomically
// (vfs.WriteFileAtomic).
func (ix *HashIndex) Sync() error {
	if ix.path == "" {
		return nil
	}
	return vfs.WriteFileAtomic(ix.fsys, ix.path, ix.save)
}

// Snapshot format: count, then per entry a serialised value and bitmap.
func (ix *HashIndex) save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := binary.Write(w, binary.LittleEndian, uint64(len(ix.postings))); err != nil {
		return err
	}
	for _, p := range ix.postings {
		if err := graph.WriteValue(w, p.val); err != nil {
			return err
		}
		if _, err := p.ids.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

func (ix *HashIndex) load(r io.Reader) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		v, err := graph.ReadValue(r)
		if err != nil {
			return err
		}
		b := bitmap.New()
		if _, err := b.ReadFrom(r); err != nil {
			return err
		}
		ix.postings[v.Key()] = posting{val: v, ids: b}
	}
	return nil
}
