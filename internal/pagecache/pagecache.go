// Package pagecache implements a fixed-size page cache over a backing
// file, the buffer-management substrate of the Neo4j-analog engine.
//
// Neo4j's query latencies in the paper are dominated by whether the
// relevant region of the store files is resident in the page cache: the
// authors report that "Neo4j takes a long time to warm up the caches for
// a new query" and that cold-cache first runs are expensive even for
// small neighbourhoods. This package reproduces that mechanism: every
// record access goes through Get, which either hits a resident page or
// faults it in from the backing file, and the cache exposes hit/fault
// statistics plus an explicit Cool operation used by the cold-cache
// experiments.
//
// Frames are reused, as in a buffer pool: a fault on a full stripe
// evicts an unpinned page and reads the new page into that page's
// frame, so faults allocate nothing once the cache has filled. Page
// bytes — Data and the slices Read and Write pass to their callbacks —
// are therefore valid only while the caller holds the pin; after Unpin
// the same memory may hold another page. Keep a copy, never a
// sub-slice.
package pagecache

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"twigraph/internal/obs"
	"twigraph/internal/vfs"
)

// PageSize is the fixed page size in bytes. 8 KiB matches Neo4j's page
// cache unit.
const PageSize = 8192

// Striping: at bench capacities (thousands of pages) a single mutex
// serialises the whole read path of the parallel query executor, so the
// cache shards its residency state into independent stripes keyed by
// page id. Small caches keep one stripe — eviction then considers every
// resident page globally, which the exact-count eviction tests rely on.
const (
	stripeCount        = 8
	stripedMinCapacity = 64
)

// Stats aggregates cache activity counters. All counters are cumulative
// since the cache was opened.
type Stats struct {
	Hits      uint64 // Get found the page resident
	Faults    uint64 // Get read the page from the backing file
	Evictions uint64 // resident pages evicted to make room
	Flushes   uint64 // dirty pages written back
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Faults += o.Faults
	s.Evictions += o.Evictions
	s.Flushes += o.Flushes
}

// Cache is a pinned-page LRU cache over one backing file. It is safe for
// concurrent use: residency state (pages, LRU, pins, stats) lives in
// per-stripe shards each guarded by their own mu, while page *contents*
// are guarded by the stripe's dataMu — readers and the write-back path
// share it, mutators take it exclusively. Lock order within a stripe is
// always mu before dataMu; no operation holds two stripes at once except
// the whole-cache walks (FlushAll, Cool, ...), which visit stripes one
// at a time.
type Cache struct {
	file     vfs.File
	capacity int // max resident pages, summed over stripes
	stripes  []*stripe
	ins      atomic.Pointer[Instruments]
	size     atomic.Int64 // logical file size in bytes
	closed   atomic.Bool
}

// stripe owns the residency state for the page ids hashed to it. Each
// stripe runs the same LRU protocol the cache used to run globally, over
// its share of the capacity.
type stripe struct {
	c        *Cache
	mu       sync.Mutex
	dataMu   sync.RWMutex
	capacity int
	pages    map[int64]*page
	lruHead  *page // most recently used
	lruTail  *page // least recently used
	stats    Stats
	rehits   atomic.Uint64 // counted by Hit; added to stats.Hits on read
}

// Instruments binds a cache to the shared observability registry: each
// non-nil counter is incremented alongside the cache's own Stats, and
// faults are attributed to the tracer's active span (the mechanism the
// cold-cache experiments and `twiql :trace` observe). Several caches
// may share one set of counters — the Neo4j-analog aggregates its five
// store files this way.
type Instruments struct {
	Hits      *obs.Counter
	Faults    *obs.Counter
	Evictions *obs.Counter
	Flushes   *obs.Counter
	Tracer    *obs.Tracer
	// Trace, when set and enabled, receives one instant event per page
	// fault so exported timelines show cold-cache warm-up bursts.
	Trace *obs.TraceBuffer
}

// Instrument attaches registry counters and a tracer to the cache.
func (c *Cache) Instrument(ins Instruments) {
	c.ins.Store(&ins)
}

// page is one frame: a PageSize buffer and the residency state of the
// page it currently holds. An evicted frame is reused for the fault
// that evicted it.
type page struct {
	id         int64
	buf        []byte
	dirty      bool
	pins       int
	prev, next *page // LRU list
}

// Open creates a cache of the given capacity (in pages) over path. The
// file is created if missing. Capacity must be at least 1.
func Open(path string, capacity int) (*Cache, error) {
	return OpenFS(vfs.OS, path, capacity)
}

// OpenFS is Open on an explicit filesystem (fault-injection tests swap
// in a vfs.FaultFS; production code uses Open).
func OpenFS(fsys vfs.FS, path string, capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pagecache: capacity %d < 1", capacity)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := stripes(capacity)
	c := &Cache{file: f, capacity: capacity}
	c.size.Store(size)
	c.ins.Store(&Instruments{})
	c.stripes = make([]*stripe, n)
	for i := range c.stripes {
		share := capacity / n
		if i < capacity%n {
			share++
		}
		c.stripes[i] = &stripe{
			c:        c,
			capacity: share,
			pages:    make(map[int64]*page, share),
		}
	}
	return c, nil
}

func stripes(capacity int) int {
	if capacity >= stripedMinCapacity {
		return stripeCount
	}
	return 1
}

// StripeCapacity is the capacity of the smallest stripe of a cache of
// the given capacity: how many goroutines can each keep one page of the
// cache pinned with every Get still finding a frame, whichever stripes
// their pages hash to.
func StripeCapacity(capacity int) int { return capacity / stripes(capacity) }

func (c *Cache) stripeFor(id int64) *stripe {
	return c.stripes[uint64(id)%uint64(len(c.stripes))]
}

// Page is a pinned reference to a resident page. The caller must Unpin
// it when done; writes must go through MarkDirty.
type Page struct {
	s *stripe
	p *page
}

// Data returns the page's byte slice (always PageSize long). The slice
// must not outlive Unpin: the frame is reused for another page. Callers
// using Data directly must serialise against concurrent mutators
// themselves; prefer Read/Write, which synchronise with the write-back
// path.
func (pg Page) Data() []byte { return pg.p.buf }

// Read invokes fn with the page bytes under the shared data lock, so it
// is safe against concurrent Write and write-back. fn must not keep the
// slice or a sub-slice of it.
func (pg Page) Read(fn func(buf []byte)) {
	pg.s.dataMu.RLock()
	fn(pg.p.buf)
	pg.s.dataMu.RUnlock()
}

// Write invokes fn with the page bytes under the exclusive data lock
// and marks the page dirty. Like Read, fn must not keep the slice.
func (pg Page) Write(fn func(buf []byte)) {
	pg.s.dataMu.Lock()
	fn(pg.p.buf)
	pg.s.dataMu.Unlock()
	pg.MarkDirty()
}

// MarkDirty records that the page was modified and must be written back
// before eviction.
func (pg Page) MarkDirty() {
	pg.s.mu.Lock()
	pg.p.dirty = true
	pg.s.mu.Unlock()
}

// Unpin releases the pin taken by Get. Unpinning a page more times
// than it was pinned panics: the frame may already hold another page,
// whose pin a stale Unpin would drop.
func (pg Page) Unpin() {
	pg.s.mu.Lock()
	defer pg.s.mu.Unlock()
	if pg.p.pins == 0 {
		panic(fmt.Sprintf("pagecache: Unpin of page %d, which is not pinned", pg.p.id))
	}
	pg.p.pins--
}

// Hit counts n hits on a page the caller holds pinned: a reader that
// keeps its page pinned across records reports the Gets it skipped, so
// the hit ratio keeps its meaning. It takes no lock and leaves the LRU
// order alone.
func (pg Page) Hit(n uint64) {
	pg.s.rehits.Add(n)
	if h := pg.s.c.ins.Load().Hits; h != nil {
		h.Add(n)
	}
}

// Get pins the page with the given id, faulting it in if necessary. Page
// ids map to byte offset id*PageSize; reading past the current file size
// yields zero bytes (the file grows lazily on flush).
func (c *Cache) Get(id int64) (Page, error) {
	return c.stripeFor(id).get(id)
}

func (s *stripe) get(id int64) (Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pages == nil {
		return Page{}, fmt.Errorf("pagecache: closed")
	}
	ins := s.c.ins.Load()
	if p, ok := s.pages[id]; ok {
		s.stats.Hits++
		if ins.Hits != nil {
			ins.Hits.Inc()
		}
		p.pins++
		s.touch(p)
		return Page{s: s, p: p}, nil
	}
	s.stats.Faults++
	if ins.Faults != nil {
		ins.Faults.Inc()
	}
	if ins.Tracer != nil {
		ins.Tracer.Event("page_faults", 1)
	}
	if ins.Trace.Enabled() {
		ins.Trace.Instant("pagecache", "page_fault", 1, map[string]any{"page": id})
	}
	p, err := s.evictIfFullLocked(ins)
	if err != nil {
		return Page{}, err
	}
	if p == nil {
		p = &page{buf: make([]byte, PageSize)}
	}
	if err := s.c.readPage(p.buf, id*PageSize); err != nil {
		return Page{}, err
	}
	p.id, p.pins, p.dirty = id, 1, false
	s.pages[id] = p
	s.pushFront(p)
	return Page{s: s, p: p}, nil
}

// readPage fills buf with the page at byte offset off. Bytes the file
// does not hold read as zeros: the whole page past EOF, the tail of a
// short last page. buf may be a recycled frame still holding another
// page's bytes, so those zeros are written explicitly; a full read
// clears nothing. Every read error but io.EOF is returned.
func (c *Cache) readPage(buf []byte, off int64) error {
	if off >= c.size.Load() {
		clear(buf)
		return nil
	}
	n, err := c.file.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	clear(buf[n:])
	return nil
}

// evictIfFullLocked evicts the least-recently-used unpinned page when
// the stripe is at capacity and hands back its frame for the caller to
// reuse; below capacity it returns nil. It fails if every resident page
// is pinned.
func (s *stripe) evictIfFullLocked(ins *Instruments) (*page, error) {
	if len(s.pages) < s.capacity {
		return nil, nil
	}
	victim := s.lruTail
	for victim != nil && victim.pins > 0 {
		victim = victim.prev
	}
	if victim == nil {
		return nil, fmt.Errorf("pagecache: all %d pages pinned", len(s.pages))
	}
	if victim.dirty {
		if err := s.writeBackLocked(victim, ins); err != nil {
			return nil, err
		}
	}
	s.unlink(victim)
	delete(s.pages, victim.id)
	s.stats.Evictions++
	if ins.Evictions != nil {
		ins.Evictions.Inc()
	}
	return victim, nil
}

func (s *stripe) writeBackLocked(p *page, ins *Instruments) error {
	off := p.id * PageSize
	s.dataMu.RLock()
	_, err := s.c.file.WriteAt(p.buf, off)
	s.dataMu.RUnlock()
	if err != nil {
		return err
	}
	end := off + PageSize
	for {
		size := s.c.size.Load()
		if end <= size || s.c.size.CompareAndSwap(size, end) {
			break
		}
	}
	p.dirty = false
	s.stats.Flushes++
	if ins.Flushes != nil {
		ins.Flushes.Inc()
	}
	return nil
}

// FlushAll writes back every dirty page without evicting.
func (c *Cache) FlushAll() error {
	ins := c.ins.Load()
	for _, s := range c.stripes {
		s.mu.Lock()
		for _, p := range s.pages {
			if p.dirty {
				if err := s.writeBackLocked(p, ins); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Sync flushes all dirty pages and fsyncs the backing file.
func (c *Cache) Sync() error {
	if err := c.FlushAll(); err != nil {
		return err
	}
	return c.file.Sync()
}

// Cool flushes and evicts every resident page, simulating a cold cache.
// Pinned pages are flushed but stay resident.
func (c *Cache) Cool() error {
	ins := c.ins.Load()
	for _, s := range c.stripes {
		s.mu.Lock()
		for id, p := range s.pages {
			if p.dirty {
				if err := s.writeBackLocked(p, ins); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			if p.pins == 0 {
				s.unlink(p)
				delete(s.pages, id)
				s.stats.Evictions++
				if ins.Evictions != nil {
					ins.Evictions.Inc()
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.stripes {
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
		out.Hits += s.rehits.Load()
	}
	return out
}

// ResetStats zeroes the counters (used between experiment phases).
func (c *Cache) ResetStats() {
	for _, s := range c.stripes {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
		s.rehits.Store(0)
	}
}

// Resident returns the number of pages currently cached.
func (c *Cache) Resident() int {
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		n += len(s.pages)
		s.mu.Unlock()
	}
	return n
}

// Pinned returns the number of resident pages some caller holds pinned.
func (c *Cache) Pinned() int {
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		for _, p := range s.pages {
			if p.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Size returns the logical size of the backing file in bytes, including
// pages not yet flushed.
func (c *Cache) Size() int64 {
	sz := c.size.Load()
	for _, s := range c.stripes {
		s.mu.Lock()
		for _, p := range s.pages {
			if end := (p.id + 1) * PageSize; p.dirty && end > sz {
				sz = end
			}
		}
		s.mu.Unlock()
	}
	return sz
}

// Close flushes and closes the backing file. The cache is unusable
// afterwards. The file is closed even when a write-back fails; the
// first error is returned.
func (c *Cache) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	var firstErr error
	ins := c.ins.Load()
	for _, s := range c.stripes {
		s.mu.Lock()
		for _, p := range s.pages {
			if p.dirty {
				if err := s.writeBackLocked(p, ins); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		s.pages = nil
		s.lruHead, s.lruTail = nil, nil
		s.mu.Unlock()
	}
	if err := c.file.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ---------- LRU list maintenance (s.mu held) ----------

func (s *stripe) pushFront(p *page) {
	p.prev = nil
	p.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = p
	}
	s.lruHead = p
	if s.lruTail == nil {
		s.lruTail = p
	}
}

func (s *stripe) unlink(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		s.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		s.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

func (s *stripe) touch(p *page) {
	if s.lruHead == p {
		return
	}
	s.unlink(p)
	s.pushFront(p)
}
