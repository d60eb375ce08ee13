// Package storage implements Neo4j-style fixed-size record stores over
// the page cache: a node store, a relationship store whose records form
// per-node doubly-linked chains, a property store, and a dynamic store
// for string payloads.
//
// The layout mirrors the native Neo4j store format closely enough to
// reproduce its performance characteristics: following one relationship
// hop costs one relationship-record fetch, reading a property chain
// costs one record per property, and every record fetch is a "db hit"
// against the page cache — the unit the paper's Cypher profiler counts.
package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

	"twigraph/internal/obs"
	"twigraph/internal/pagecache"
	"twigraph/internal/vfs"
)

// recordFileMagic identifies a record file header page.
const recordFileMagic = 0x52435446 // "RCTF"

// maxPersistedFree is how many free-list entries fit in the header page.
// A longer free list is truncated on Close; the overflow ids are leaked
// until the store is rebuilt, which matches the scale of this
// reproduction (deletes are rare in the microblogging workload).
const maxPersistedFree = (pagecache.PageSize - 32) / 8

// RecordFile is a file of fixed-size records addressed by a dense uint64
// id, with id 0 reserved as nil. Page 0 of the backing file holds the
// header; records start on page 1.
//
// Every record access increments the db-hit counter bound by
// Instrument, which the query profiler reads.
type RecordFile struct {
	cache   *pagecache.Cache
	recSize int
	perPage int

	mu        sync.Mutex
	highWater uint64 // last allocated id
	baseHigh  uint64 // highWater as recovered from the header at open
	free      []uint64
	inUse     uint64 // highWater minus freed records

	fetches *obs.Counter // shared registry counter, nil until Instrument
}

// Instrument binds the file to the engine's observability registry:
// fetches receives one increment per record access (the logical "db
// hit" unit), and the cache instruments cover the physical page layer.
// Several stores typically share one set of counters.
func (f *RecordFile) Instrument(fetches *obs.Counter, cache pagecache.Instruments) {
	f.fetches = fetches
	f.cache.Instrument(cache)
}

// OpenRecordFile opens or creates a record file at path with the given
// record size, caching cachePages pages. Record size must be in
// (0, PageSize].
func OpenRecordFile(path string, recSize, cachePages int) (*RecordFile, error) {
	return OpenRecordFileFS(vfs.OS, path, recSize, cachePages)
}

// OpenRecordFileFS is OpenRecordFile on an explicit filesystem, so
// fault-injection tests can run the whole record path (header included)
// over a vfs.FaultFS.
func OpenRecordFileFS(fsys vfs.FS, path string, recSize, cachePages int) (*RecordFile, error) {
	if recSize <= 0 || recSize > pagecache.PageSize {
		return nil, fmt.Errorf("storage: record size %d out of range", recSize)
	}
	cache, err := pagecache.OpenFS(fsys, path, cachePages)
	if err != nil {
		return nil, err
	}
	f := &RecordFile{cache: cache, recSize: recSize, perPage: pagecache.PageSize / recSize}
	if err := f.loadHeader(); err != nil {
		cache.Close()
		return nil, err
	}
	return f, nil
}

func (f *RecordFile) loadHeader() error {
	pg, err := f.cache.Get(0)
	if err != nil {
		return err
	}
	defer pg.Unpin()
	var loadErr error
	pg.Read(func(buf []byte) { loadErr = f.parseHeader(buf) })
	return loadErr
}

func (f *RecordFile) parseHeader(buf []byte) error {
	magic := binary.LittleEndian.Uint32(buf[0:4])
	if magic == 0 {
		// Fresh file; header is written on Sync/Close.
		return nil
	}
	if magic != recordFileMagic {
		return fmt.Errorf("storage: bad magic %#x", magic)
	}
	if rs := int(binary.LittleEndian.Uint32(buf[4:8])); rs != f.recSize {
		return fmt.Errorf("storage: record size mismatch: file %d, want %d", rs, f.recSize)
	}
	f.highWater = binary.LittleEndian.Uint64(buf[8:16])
	f.baseHigh = f.highWater
	f.inUse = binary.LittleEndian.Uint64(buf[16:24])
	nFree := binary.LittleEndian.Uint64(buf[24:32])
	f.free = make([]uint64, 0, nFree)
	for i := uint64(0); i < nFree; i++ {
		f.free = append(f.free, binary.LittleEndian.Uint64(buf[32+i*8:]))
	}
	return nil
}

func (f *RecordFile) storeHeader() error {
	pg, err := f.cache.Get(0)
	if err != nil {
		return err
	}
	defer pg.Unpin()
	pg.Write(func(buf []byte) { f.fillHeader(buf) })
	return nil
}

func (f *RecordFile) fillHeader(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], recordFileMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(f.recSize))
	binary.LittleEndian.PutUint64(buf[8:16], f.highWater)
	binary.LittleEndian.PutUint64(buf[16:24], f.inUse)
	free := f.free
	if len(free) > maxPersistedFree {
		free = free[:maxPersistedFree]
	}
	binary.LittleEndian.PutUint64(buf[24:32], uint64(len(free)))
	for i, id := range free {
		binary.LittleEndian.PutUint64(buf[32+i*8:], id)
	}
}

// Allocate reserves a record id, reusing a freed id when available.
func (f *RecordFile) Allocate() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inUse++
	if n := len(f.free); n > 0 {
		id := f.free[n-1]
		f.free = f.free[:n-1]
		return id
	}
	f.highWater++
	return f.highWater
}

// AllocateRun reserves n consecutive record ids and returns the first.
// The run always comes from the high-water mark, which matches what n
// sequential Allocate calls return on a store whose free list is empty
// — the fresh-store case bulk import runs against. Batch extents let
// the importer reserve ids once per batch instead of once per row.
func (f *RecordFile) AllocateRun(n int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inUse += uint64(n)
	first := f.highWater + 1
	f.highWater += uint64(n)
	return first
}

// AdoptID forces id to count as allocated. WAL replay calls this for
// every logged create: after a crash the allocator state comes from a
// possibly stale header (the last checkpoint), so replayed ids can lie
// beyond the recovered high-water mark or sit on the recovered free
// list — without adoption a later Allocate would hand the same id out
// twice. Adoption bumps the high-water mark past id, removes id from
// the free list, and counts the record as live unless the header
// already counted it.
func (f *RecordFile) AdoptID(id uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fresh := id > f.baseHigh
	if id > f.highWater {
		f.highWater = id
	}
	for i, fid := range f.free {
		if fid == id {
			f.free = append(f.free[:i], f.free[i+1:]...)
			fresh = true
			break
		}
	}
	if fresh {
		f.inUse++
	}
}

// FreeIDs returns a copy of the current free list (integrity checks).
func (f *RecordFile) FreeIDs() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.free...)
}

// Release returns a record id to the free list. The caller should zero
// the record first (via Update) so scans skip it.
func (f *RecordFile) Release(id uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = append(f.free, id)
	if f.inUse > 0 {
		f.inUse--
	}
}

// pageFor maps a record id to its page and intra-page byte offset.
func (f *RecordFile) pageFor(id uint64) (int64, int) {
	idx := id - 1
	return 1 + int64(idx/uint64(f.perPage)), int(idx%uint64(f.perPage)) * f.recSize
}

// Read pins the record's page and invokes fn with the record bytes. The
// slice is only valid inside fn. Counts one db hit. It is a one-read
// Cursor.
func (f *RecordFile) Read(id uint64, fn func(rec []byte)) error {
	c := f.Cursor()
	err := c.Read(id, fn)
	c.Close()
	return err
}

// Cursor is a read position over one record file that keeps the last
// page it read pinned, so consecutive reads from the same page skip the
// page cache's lookup, LRU touch and unpin. Every record read still
// counts one db hit and still runs under the page's read latch, so it
// sees concurrent writes whole. Each read served by the pinned page
// counts as a page cache hit, as the lookup it replaces would have; the
// cursor reports them when it unpins. A Cursor belongs to one
// goroutine; Close releases its pin and leaves it reusable.
type Cursor struct {
	f      *RecordFile
	pg     pagecache.Page
	first  uint64 // id of the first record on the pinned page
	rehits uint64 // reads served by the pinned page, reported on unpin
	pinned bool
}

// Cursor returns an unpinned cursor over f.
func (f *RecordFile) Cursor() Cursor { return Cursor{f: f} }

// Read invokes fn with the bytes of record id, re-pinning only when the
// record lives on a different page from the previous read. The slice is
// only valid inside fn. Counts one db hit. It is ReadRun of one id,
// without the run bookkeeping.
func (c *Cursor) Read(id uint64, fn func(rec []byte)) error {
	if err := c.seek(id); err != nil {
		return err
	}
	f := c.f
	if f.fetches != nil {
		f.fetches.Inc()
	}
	off := int(id-c.first) * f.recSize
	c.pg.Read(func(buf []byte) { fn(buf[off : off+f.recSize]) })
	return nil
}

// ReadRun invokes fn(i, rec) with the bytes of record ids[i], for each
// i in order. Each maximal run of consecutive entries whose records
// share a page is read under one acquisition of the page's read latch,
// re-pinning only when a run starts on a different page from the
// pinned one, so at most one page stays pinned. The db-hit counter goes
// up once per run, by the run's length, and every record after a run's
// first counts as a page cache hit: the counters move exactly as they
// would for len(ids) Reads. ids may be unsorted and may repeat; id 0
// is an error, returned after the records before it were read.
//
// fn runs under the page latch: it must only decode, and must not read
// or write any record, through this cursor or another. The slice is
// only valid inside fn. ReadRun reads ids[i] before it calls fn(i, ...)
// and never again, so fn may overwrite ids[i].
func (c *Cursor) ReadRun(ids []uint64, fn func(i int, rec []byte)) error {
	f := c.f
	per := uint64(f.perPage)
	for i := 0; i < len(ids); {
		if err := c.seek(ids[i]); err != nil {
			return err
		}
		end := i + 1
		for end < len(ids) && ids[end] >= c.first && ids[end]-c.first < per {
			end++
		}
		c.rehits += uint64(end - i - 1)
		if f.fetches != nil {
			f.fetches.Add(uint64(end - i))
		}
		first, size := c.first, f.recSize
		c.pg.Read(func(buf []byte) {
			for k := i; k < end; k++ {
				off := int(ids[k]-first) * size
				fn(k, buf[off:off+size])
			}
		})
		i = end
	}
	return nil
}

// seek makes the page holding record id the pinned one and counts the
// page cache access for reading id: a Get when the page changes, else a
// hit reported on unpin.
func (c *Cursor) seek(id uint64) error {
	if id == 0 {
		return fmt.Errorf("storage: read of nil record")
	}
	f := c.f
	if c.pinned && id >= c.first && id-c.first < uint64(f.perPage) {
		c.rehits++
		return nil
	}
	// Unpin first: on a cache with one free frame the next page needs
	// the frame this cursor holds.
	c.Close()
	pageID, _ := f.pageFor(id)
	pg, err := f.cache.Get(pageID)
	if err != nil {
		return err
	}
	c.pg, c.first, c.pinned = pg, uint64(pageID-1)*uint64(f.perPage)+1, true
	return nil
}

// Close releases the cursor's pin, if any.
func (c *Cursor) Close() {
	if c.pinned {
		c.unpin()
	}
}

func (c *Cursor) unpin() {
	if c.rehits > 0 {
		c.pg.Hit(c.rehits)
		c.rehits = 0
	}
	c.pg.Unpin()
	c.pinned = false
}

// Update pins the record's page, invokes fn to mutate the record bytes,
// and marks the page dirty. Counts one db hit.
func (f *RecordFile) Update(id uint64, fn func(rec []byte)) error {
	if id == 0 {
		return fmt.Errorf("storage: update of nil record")
	}
	if f.fetches != nil {
		f.fetches.Inc()
	}
	pageID, off := f.pageFor(id)
	pg, err := f.cache.Get(pageID)
	if err != nil {
		return err
	}
	pg.Write(func(buf []byte) { fn(buf[off : off+f.recSize]) })
	pg.Unpin()
	return nil
}

// HighWater returns the largest id ever allocated.
func (f *RecordFile) HighWater() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.highWater
}

// Count returns the number of live (allocated, not released) records.
func (f *RecordFile) Count() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inUse
}

// ResetCounters zeroes the page-cache stats (between experiment
// phases). The db-hit counter belongs to the registry Instrument bound.
func (f *RecordFile) ResetCounters() {
	f.cache.ResetStats()
}

// CacheStats exposes the underlying page-cache counters.
func (f *RecordFile) CacheStats() pagecache.Stats { return f.cache.Stats() }

// Pinned returns the number of the file's cached pages held pinned.
func (f *RecordFile) Pinned() int { return f.cache.Pinned() }

// Cool evicts all cached pages (cold-cache experiments).
func (f *RecordFile) Cool() error {
	f.mu.Lock()
	err := f.storeHeader()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.cache.Cool()
}

// Sync persists the header and flushes dirty pages.
func (f *RecordFile) Sync() error {
	f.mu.Lock()
	err := f.storeHeader()
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.cache.Sync()
}

// Close syncs and closes the backing file. The file is closed even when
// the final sync fails; the first error is returned.
func (f *RecordFile) Close() error {
	err := f.Sync()
	if cerr := f.cache.Close(); err == nil {
		err = cerr
	}
	return err
}
