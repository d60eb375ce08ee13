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
// As in Neo4j's own page cache (2.2 and later), a hit takes no lock: Get
// finds the frame in a page table indexed by page id and pins it with
// one compare-and-swap on the frame's state word, which packs the page
// the frame holds, its pin count and its reference bit. Faults evict by
// CLOCK (second chance) over all frames, under the one cache mutex.
//
// Frames are reused, as in a buffer pool: a fault on a full cache evicts
// an unpinned page and reads the new page into that page's frame, so
// faults allocate nothing once the cache has filled. Page bytes — Data
// and the slices Read and Write pass to their callbacks — are therefore
// valid only while the caller holds the pin; after Unpin the same memory
// may hold another page. Keep a copy, never a sub-slice.
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

// Stats aggregates cache activity counters. All counters are cumulative
// since the cache was opened.
type Stats struct {
	Hits      uint64 // Get found the page resident
	Faults    uint64 // Get read the page from the backing file
	Evictions uint64 // resident pages evicted to make room
	Flushes   uint64 // dirty pages written back
}

// Cache is a pinned-page cache over one backing file. It is safe for
// concurrent use. A hit reads the page table and writes only the state
// word of the frame it pins. mu serialises faults, eviction, MarkDirty
// and the whole-cache walks (FlushAll, Cool, Stats, ...): the page
// table, the frame list, the clock hand, the dirty flags and the fault,
// eviction and flush counters change only under it. Page contents are
// guarded by each frame's latch: readers and the write-back path share
// it, mutators take it exclusively. Lock order is mu before a latch.
type Cache struct {
	file     vfs.File
	capacity int                                    // max resident pages
	table    atomic.Pointer[[]atomic.Pointer[page]] // page id -> frame
	ins      atomic.Pointer[Instruments]
	size     atomic.Int64 // logical file size in bytes
	closed   atomic.Bool

	mu     sync.Mutex
	frames []*page // every frame allocated, at most capacity
	free   []*page // frames that hold no page
	hand   int     // the frame the clock sweep visits next
	stats  Stats   // Hits are counted per frame
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

// A frame's state word packs, from the top: one more than the id of the
// page it holds (0 when it holds none), the CLOCK reference bit, and the
// pin count. Because the page id and the pins share one word, the CAS
// that pins a frame succeeds only while the frame still holds the page
// the table pointed at: a lookup that races with eviction never pins
// another page's frame. A pin count of claimed means the fault path owns
// the frame; it takes a frame only by CAS from an unpinned state, so a
// pinned frame is never reused.
const (
	pinBits = 20
	pinMask = 1<<pinBits - 1
	claimed = pinMask
	refBit  = 1 << pinBits
	idShift = pinBits + 1
	maxPage = 1<<(64-idShift) - 2
)

// idOf returns the id of the page a frame in state s holds, or -1.
func idOf(s uint64) int64 { return int64(s>>idShift) - 1 }

// page is one frame: a PageSize buffer and the state of the page it
// currently holds. An evicted frame is reused for the fault that
// evicted it.
type page struct {
	state atomic.Uint64
	hits  atomic.Uint64 // hits reported by Unpin, summed by Stats
	latch sync.RWMutex  // guards buf against concurrent Write
	dirty bool          // c.mu
	buf   []byte
}

// pin adds a pin if the frame holds page id and the fault path does not
// own it, and sets the reference bit.
func (p *page) pin(id int64) bool {
	for {
		s := p.state.Load()
		if s>>idShift != uint64(id+1) || s&pinMask >= claimed-1 {
			return false
		}
		if p.state.CompareAndSwap(s, (s|refBit)+1) {
			return true
		}
	}
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
	c := &Cache{file: f, capacity: capacity}
	c.size.Store(size)
	c.ins.Store(&Instruments{})
	c.table.Store(new([]atomic.Pointer[page]))
	return c, nil
}

// Page is a pinned reference to a resident page. The caller must Unpin
// it when done; writes must go through MarkDirty.
type Page struct {
	c    *Cache
	p    *page
	id   int64
	hits uint64 // reported to the cache's counters on Unpin
}

// Data returns the page's byte slice (always PageSize long). The slice
// must not outlive Unpin: the frame is reused for another page. Callers
// using Data directly must serialise against concurrent mutators
// themselves; prefer Read/Write, which synchronise with the write-back
// path.
func (pg *Page) Data() []byte { return pg.p.buf }

// Read invokes fn with the page bytes under the frame's shared latch, so
// it is safe against concurrent Write and write-back. fn must not keep
// the slice or a sub-slice of it.
func (pg *Page) Read(fn func(buf []byte)) {
	pg.p.latch.RLock()
	fn(pg.p.buf)
	pg.p.latch.RUnlock()
}

// Write invokes fn with the page bytes under the frame's exclusive latch
// and marks the page dirty. Like Read, fn must not keep the slice.
func (pg *Page) Write(fn func(buf []byte)) {
	pg.p.latch.Lock()
	fn(pg.p.buf)
	pg.p.latch.Unlock()
	pg.MarkDirty()
}

// MarkDirty records that the page was modified and must be written back
// before eviction.
func (pg *Page) MarkDirty() {
	pg.c.mu.Lock()
	pg.p.dirty = true
	pg.c.mu.Unlock()
}

// Unpin releases the pin taken by Get and reports the pin's hits.
// Unpinning a page more times than it was pinned panics, as does an
// Unpin after the frame was reused for another page: a stale Unpin
// would drop another holder's pin.
func (pg *Page) Unpin() {
	p := pg.p
	for {
		s := p.state.Load()
		if s>>idShift != uint64(pg.id+1) || s&pinMask == 0 {
			panic(fmt.Sprintf("pagecache: Unpin of page %d, which is not pinned", pg.id))
		}
		if p.state.CompareAndSwap(s, s-1) {
			break
		}
	}
	if n := pg.hits; n > 0 {
		pg.hits = 0
		p.hits.Add(n)
		if h := pg.c.ins.Load().Hits; h != nil {
			h.Add(n)
		}
	}
}

// Hit counts n hits on a page the caller holds pinned: a reader that
// keeps its page pinned across records reports the Gets it skipped, so
// the hit ratio keeps its meaning. They are counted with the pin's own
// hit when the page is unpinned, and leave the reference bit alone.
func (pg *Page) Hit(n uint64) { pg.hits += n }

// Get pins the page with the given id, faulting it in if necessary. Page
// ids map to byte offset id*PageSize; reading past the current file size
// yields zero bytes (the file grows lazily on flush). A hit is counted
// when its page is unpinned.
func (c *Cache) Get(id int64) (Page, error) {
	if t := *c.table.Load(); uint64(id) < uint64(len(t)) {
		if p := t[id].Load(); p != nil && p.pin(id) {
			return Page{c: c, p: p, id: id, hits: 1}, nil
		}
	}
	return c.fault(id)
}

// fault is Get's slow path, under mu: the page may have been faulted in
// since the lock-free lookup missed; otherwise a frame is claimed and
// the page read into it.
func (c *Cache) fault(id int64) (Page, error) {
	if id < 0 || id > maxPage {
		return Page{}, fmt.Errorf("pagecache: page id %d out of range", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return Page{}, fmt.Errorf("pagecache: closed")
	}
	t := c.tableFor(id)
	if p := t[id].Load(); p != nil {
		if !p.pin(id) {
			return Page{}, fmt.Errorf("pagecache: page %d pinned %d times", id, claimed-1)
		}
		return Page{c: c, p: p, id: id, hits: 1}, nil
	}
	ins := c.ins.Load()
	c.stats.Faults++
	if ins.Faults != nil {
		ins.Faults.Inc()
	}
	if ins.Tracer != nil {
		ins.Tracer.Event("page_faults", 1)
	}
	if ins.Trace.Enabled() {
		ins.Trace.Instant("pagecache", "page_fault", 1, map[string]any{"page": id})
	}
	p, err := c.claim(ins)
	if err != nil {
		return Page{}, err
	}
	if err := c.readPage(p.buf, id*PageSize); err != nil {
		c.free = append(c.free, p)
		p.state.Store(0)
		return Page{}, err
	}
	t[id].Store(p)
	p.state.Store(uint64(id+1)<<idShift | refBit | 1)
	return Page{c: c, p: p, id: id}, nil
}

// tableFor returns the page table, first republishing it grown to hold
// id if it is too short (c.mu held). Lookups still reading the old table
// find frames that may have moved on; their pin fails and they fault.
func (c *Cache) tableFor(id int64) []atomic.Pointer[page] {
	t := *c.table.Load()
	if id < int64(len(t)) {
		return t
	}
	g := make([]atomic.Pointer[page], max(2*len(t), int(id)+1))
	for i := range t {
		g[i].Store(t[i].Load())
	}
	c.table.Store(&g)
	return g
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

// claim returns a frame for a fault, owned by the caller (state claimed,
// in no table slot): a free frame, a new one while the cache holds fewer
// than capacity frames, or else the first frame the clock hand reaches
// that is unpinned with its reference bit clear. The hand clears the
// bits it passes, so a page hit since the hand last passed survives one
// more turn. The victim is written back first if dirty. Every frame
// outside the free list holds a page. claim fails if four turns find
// every frame pinned: two clear every reference bit, and pins move
// while the hand sweeps, so a frame found pinned may be free a turn on.
func (c *Cache) claim(ins *Instruments) (*page, error) {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		p.state.Store(claimed) // no pin can take a frame that holds no page
		return p, nil
	}
	if len(c.frames) < c.capacity {
		p := &page{buf: make([]byte, PageSize)}
		p.state.Store(claimed)
		c.frames = append(c.frames, p)
		return p, nil
	}
	for range 4 * len(c.frames) {
		p := c.frames[c.hand]
		c.hand = (c.hand + 1) % len(c.frames)
		s := p.state.Load()
		if s&refBit != 0 {
			for !p.state.CompareAndSwap(s, s&^refBit) {
				s = p.state.Load()
			}
			continue
		}
		if s&pinMask != 0 || !p.state.CompareAndSwap(s, claimed) {
			continue
		}
		if p.dirty {
			if err := c.writeBack(p, idOf(s), ins); err != nil {
				p.state.Store(s)
				return nil, err
			}
		}
		c.unmap(idOf(s), ins)
		return p, nil
	}
	return nil, fmt.Errorf("pagecache: all %d pages pinned", len(c.frames))
}

// unmap removes an evicted page from the page table (c.mu held).
func (c *Cache) unmap(id int64, ins *Instruments) {
	(*c.table.Load())[id].Store(nil)
	c.stats.Evictions++
	if ins.Evictions != nil {
		ins.Evictions.Inc()
	}
}

// writeBack writes frame p, holding page id, to the file (c.mu held).
func (c *Cache) writeBack(p *page, id int64, ins *Instruments) error {
	off := id * PageSize
	p.latch.RLock()
	_, err := c.file.WriteAt(p.buf, off)
	p.latch.RUnlock()
	if err != nil {
		return err
	}
	end := off + PageSize
	for {
		size := c.size.Load()
		if end <= size || c.size.CompareAndSwap(size, end) {
			break
		}
	}
	p.dirty = false
	c.stats.Flushes++
	if ins.Flushes != nil {
		ins.Flushes.Inc()
	}
	return nil
}

// flushDirty writes back every dirty frame (c.mu held), stopping at the
// first error.
func (c *Cache) flushDirty(ins *Instruments) error {
	for _, p := range c.frames {
		if p.dirty {
			if err := c.writeBack(p, idOf(p.state.Load()), ins); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushAll writes back every dirty page without evicting.
func (c *Cache) FlushAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushDirty(c.ins.Load())
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
	c.mu.Lock()
	defer c.mu.Unlock()
	ins := c.ins.Load()
	if err := c.flushDirty(ins); err != nil {
		return err
	}
	for _, p := range c.frames {
		for {
			s := p.state.Load()
			if idOf(s) < 0 || s&pinMask != 0 {
				break
			}
			if p.state.CompareAndSwap(s, 0) {
				c.unmap(idOf(s), ins)
				c.free = append(c.free, p)
				break
			}
		}
	}
	return nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	for _, p := range c.frames {
		out.Hits += p.hits.Load()
	}
	return out
}

// ResetStats zeroes the counters (used between experiment phases).
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	for _, p := range c.frames {
		p.hits.Store(0)
	}
}

// Resident returns the number of pages currently cached.
func (c *Cache) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames) - len(c.free)
}

// Pinned returns the number of resident pages some caller holds pinned.
func (c *Cache) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.frames {
		if p.state.Load()&pinMask != 0 {
			n++
		}
	}
	return n
}

// Size returns the logical size of the backing file in bytes, including
// pages not yet flushed.
func (c *Cache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sz := c.size.Load()
	for _, p := range c.frames {
		if end := (idOf(p.state.Load()) + 1) * PageSize; p.dirty && end > sz {
			sz = end
		}
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
	c.mu.Lock()
	var firstErr error
	ins := c.ins.Load()
	for _, p := range c.frames {
		if p.dirty {
			if err := c.writeBack(p, idOf(p.state.Load()), ins); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	c.table.Store(new([]atomic.Pointer[page]))
	c.mu.Unlock()
	if err := c.file.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
