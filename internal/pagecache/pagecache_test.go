package pagecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twigraph/internal/vfs"
)

func openTemp(t *testing.T, capacity int) *Cache {
	t.Helper()
	c, err := Open(filepath.Join(t.TempDir(), "store.db"), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestGetZeroFilledBeyondEOF(t *testing.T) {
	c := openTemp(t, 4)
	pg, err := c.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin()
	for i, b := range pg.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	if s := c.Stats(); s.Faults != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.db")
	c, err := Open(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := c.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("hello"))
	pg.MarkDirty()
	pg.Unpin()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	pg2, err := c2.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Unpin()
	if string(pg2.Data()[:5]) != "hello" {
		t.Errorf("read back %q", pg2.Data()[:5])
	}
	// Page 0 and 1 should be zero (lazily grown hole).
	pg0, _ := c2.Get(0)
	defer pg0.Unpin()
	if pg0.Data()[0] != 0 {
		t.Error("hole page not zero")
	}
}

func TestHitAndFaultAccounting(t *testing.T) {
	c := openTemp(t, 4)
	for i := 0; i < 3; i++ {
		pg, err := c.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin()
	}
	s := c.Stats()
	if s.Faults != 1 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 1 fault 2 hits", s)
	}
}

// TestEvictionClockOrder walks a 3-frame cache through CLOCK (second
// chance) replacement: a fault takes the first unpinned frame the hand
// reaches with its reference bit clear, clearing the bits it passes.
// Faults and hits set the bit, so a page hit since the hand last
// cleared it survives one more turn, and a pinned page is skipped
// whatever its bit.
func TestEvictionClockOrder(t *testing.T) {
	c := openTemp(t, 3)
	var held Page
	steps := []struct {
		id       int64 // page to Get; -1 unpins the held page
		hit      bool
		hold     bool    // keep the page pinned until the unpin step
		resident []int64 // pages resident after the step
	}{
		{id: 0, resident: []int64{0}},
		{id: 1, resident: []int64{0, 1}},
		{id: 2, resident: []int64{0, 1, 2}},
		{id: 3, resident: []int64{1, 2, 3}},            // one turn clears every bit, evicts 0
		{id: 1, hit: true, resident: []int64{1, 2, 3}}, // sets 1's bit again
		{id: 4, resident: []int64{1, 3, 4}},            // clears 1's bit, evicts 2
		{id: 0, resident: []int64{0, 3, 4}},            // clears 3's bit, evicts 1
		{id: 3, hit: true, hold: true, resident: []int64{0, 3, 4}},
		{id: 5, resident: []int64{0, 3, 5}}, // clears 4's, 3's and 0's bits, evicts 4
		{id: 6, resident: []int64{3, 5, 6}}, // skips pinned 3, evicts 0
		{id: 7, resident: []int64{3, 6, 7}}, // clears 5's and 6's bits, skips 3, evicts 5
		{id: -1, resident: []int64{3, 6, 7}},
		{id: 8, resident: []int64{6, 7, 8}}, // 3, unpinned with its bit clear
	}
	for i, st := range steps {
		faults := c.Stats().Faults
		if st.id < 0 {
			held.Unpin()
		} else {
			pg, err := c.Get(st.id)
			if err != nil {
				t.Fatal(err)
			}
			if hit := c.Stats().Faults == faults; hit != st.hit {
				t.Errorf("step %d: Get(%d) hit = %v, want %v", i, st.id, hit, st.hit)
			}
			if st.hold {
				held = pg
			} else {
				pg.Unpin()
			}
		}
		var resident []int64
		for id := int64(0); id < 16; id++ {
			if tbl := *c.table.Load(); id < int64(len(tbl)) && tbl[id].Load() != nil {
				resident = append(resident, id)
			}
		}
		if fmt.Sprint(resident) != fmt.Sprint(st.resident) {
			t.Fatalf("step %d (page %d): resident %v, want %v", i, st.id, resident, st.resident)
		}
	}
	if s := c.Stats(); s.Faults != 10 || s.Evictions != 7 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 10 faults, 7 evictions, 2 hits", s)
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	c := openTemp(t, 2)
	p0, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// Cache full with both pinned: next Get must fail.
	if _, err := c.Get(2); err == nil {
		t.Error("expected error when all pages pinned")
	}
	p1.Unpin()
	if _, err := c.Get(2); err != nil {
		t.Errorf("Get after unpin: %v", err)
	}
	p0.Unpin()
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := openTemp(t, 1)
	pg, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0] = 0xAB
	pg.MarkDirty()
	pg.Unpin()
	// Evict page 0 by faulting page 1.
	pg1, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg1.Unpin()
	if s := c.Stats(); s.Flushes != 1 {
		t.Errorf("flushes = %d, want 1", s.Flushes)
	}
	// Re-fault page 0 and verify contents survived eviction.
	pg0, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pg0.Unpin()
	if pg0.Data()[0] != 0xAB {
		t.Error("dirty data lost on eviction")
	}
}

func TestCoolEmptiesCache(t *testing.T) {
	c := openTemp(t, 8)
	for i := int64(0); i < 5; i++ {
		pg, _ := c.Get(i)
		pg.MarkDirty()
		pg.Unpin()
	}
	if err := c.Cool(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Errorf("resident = %d after Cool", c.Resident())
	}
	// All subsequent accesses must fault.
	before := c.Stats().Faults
	pg, _ := c.Get(0)
	pg.Unpin()
	if c.Stats().Faults != before+1 {
		t.Error("Get after Cool did not fault")
	}
}

func TestSizeTracksDirtyPages(t *testing.T) {
	c := openTemp(t, 4)
	if c.Size() != 0 {
		t.Errorf("fresh size = %d", c.Size())
	}
	pg, _ := c.Get(3)
	pg.MarkDirty()
	pg.Unpin()
	if got := c.Size(); got != 4*PageSize {
		t.Errorf("Size = %d, want %d", got, 4*PageSize)
	}
}

func TestResetStats(t *testing.T) {
	c := openTemp(t, 4)
	pg, _ := c.Get(0)
	pg.Unpin()
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nodir", "x"), 4); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestCloseIsIdempotentAndFlushes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.db")
	c, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := c.Get(0)
	pg.Data()[7] = 9
	pg.MarkDirty()
	pg.Unpin()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[7] != 9 {
		t.Error("dirty page not flushed on Close")
	}
	if _, err := c.Get(0); err == nil {
		t.Error("Get after Close should fail")
	}
}

// TestRandomizedReadWrite checks the cache against a model of the file
// under constant eviction, so almost every fault reuses another page's
// frame, with FlushAll and Cool interleaved and one page at a time held
// pinned across the churn. Each page is filled with one byte value; any
// byte a recycled frame leaked from its previous page shows up as a
// mismatch.
func TestRandomizedReadWrite(t *testing.T) {
	for _, tc := range []struct{ capacity, ids int }{{8, 64}, {64, 512}} {
		t.Run(fmt.Sprintf("capacity=%d", tc.capacity), func(t *testing.T) {
			c := openTemp(t, tc.capacity)
			rng := rand.New(rand.NewSource(3))
			model := map[int64]byte{}
			check := func(pg Page, id int64) {
				t.Helper()
				want := model[id]
				for i, b := range pg.Data() {
					if b != want {
						t.Fatalf("page %d byte %d = %#x, want %#x", id, i, b, want)
					}
				}
			}
			var held Page
			heldID, heldFor := int64(-1), 0
			for i := 0; i < 4000; i++ {
				switch rng.Intn(100) {
				case 0:
					if err := c.FlushAll(); err != nil {
						t.Fatal(err)
					}
				case 1:
					if err := c.Cool(); err != nil {
						t.Fatal(err)
					}
				}
				id := int64(rng.Intn(tc.ids))
				pg, err := c.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				check(pg, id)
				if id != heldID && rng.Intn(2) == 0 {
					v := byte(rng.Intn(255) + 1)
					pg.Write(func(buf []byte) {
						for j := range buf {
							buf[j] = v
						}
					})
					model[id] = v
				}
				if heldID < 0 && rng.Intn(20) == 0 {
					held, heldID, heldFor = pg, id, 1+rng.Intn(200)
					continue
				}
				pg.Unpin()
				if heldID >= 0 {
					if heldFor--; heldFor == 0 {
						check(held, heldID)
						held.Unpin()
						heldID = -1
					}
				}
			}
			if heldID >= 0 {
				check(held, heldID)
				held.Unpin()
			}
			if st := c.Stats(); st.Evictions == 0 {
				t.Fatalf("no evictions: %+v", st)
			}
		})
	}
}

// TestFaultReusesEvictedFrame cycles through twice as many pages as a
// full cache holds, so every Get evicts and faults: each fault must read
// into an evicted frame and allocate nothing.
func TestFaultReusesEvictedFrame(t *testing.T) {
	const capacity, ids = 8, 16
	c := openTemp(t, capacity)
	for id := int64(0); id < ids; id++ {
		pg, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Write(func(buf []byte) { buf[0] = byte(id) })
		pg.Unpin()
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	frames := map[*byte]bool{}
	for _, p := range c.frames {
		frames[&p.buf[0]] = true
	}
	faults := c.Stats().Faults
	next, newFrame := int64(0), false
	allocs := testing.AllocsPerRun(1000, func() {
		pg, err := c.Get(next % ids)
		if err != nil {
			t.Fatal(err)
		}
		if got := pg.Data()[0]; got != byte(next%ids) {
			t.Fatalf("page %d byte 0 = %d", next%ids, got)
		}
		newFrame = newFrame || !frames[&pg.Data()[0]]
		pg.Unpin()
		next++
	})
	if allocs != 0 {
		t.Errorf("fault on a full cache: %v allocs/op, want 0", allocs)
	}
	if newFrame {
		t.Error("a fault on a full cache read into a new frame")
	}
	if got := c.Stats().Faults - faults; got != uint64(next) {
		t.Errorf("%d faults over %d Gets: the loop must miss every time", got, next)
	}
}

// TestRecycledFrameZeroFill reuses one dirty frame for a page past EOF
// and for a short last page: what the file does not hold must read as
// zeros, not as the previous page's bytes.
func TestRecycledFrameZeroFill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	const tail = 100
	short := make([]byte, PageSize+tail)
	for i := range short {
		short[i] = 0x11
	}
	if err := os.WriteFile(path, short, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dirty := func(id int64) *byte {
		t.Helper()
		pg, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Unpin()
		pg.Write(func(buf []byte) {
			for i := range buf {
				buf[i] = 0xFF
			}
		})
		return &pg.Data()[0]
	}
	read := func(id int64, frame *byte) []byte {
		t.Helper()
		pg, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Unpin()
		if &pg.Data()[0] != frame {
			t.Fatalf("page %d did not reuse the evicted frame", id)
		}
		return append([]byte(nil), pg.Data()...)
	}

	// Page 1 is the file's short last page: tail bytes, then zeros.
	got := read(1, dirty(0))
	for i, b := range got {
		want := byte(0)
		if i < tail {
			want = 0x11
		}
		if b != want {
			t.Fatalf("short last page byte %d = %#x, want %#x", i, b, want)
		}
	}
	// Page 5 lies past EOF.
	for i, b := range read(5, dirty(3)) {
		if b != 0 {
			t.Fatalf("page past EOF byte %d = %#x, want 0", i, b)
		}
	}
}

// TestPinnedPageSurvivesChurn pins one page and churns the rest of the
// cache with dirty faults: the pinned frame must never be chosen as a
// victim.
func TestPinnedPageSurvivesChurn(t *testing.T) {
	c := openTemp(t, 8)
	pinned, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pinned.Write(func(buf []byte) {
		for i := range buf {
			buf[i] = byte(i)
		}
	})
	for i := int64(1); i < 2000; i++ {
		pg, err := c.Get(1 + i%50)
		if err != nil {
			t.Fatal(err)
		}
		pg.Write(func(buf []byte) {
			for j := range buf {
				buf[j] = 0xEE
			}
		})
		pg.Unpin()
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("churn evicted nothing")
	}
	pinned.Read(func(buf []byte) {
		for i, b := range buf {
			if b != byte(i) {
				t.Fatalf("pinned page byte %d = %#x, want %#x", i, b, byte(i))
			}
		}
	})
	pinned.Unpin()
}

func TestUnpinOfUnpinnedPagePanics(t *testing.T) {
	c := openTemp(t, 4)
	pg, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("second Unpin did not panic")
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, "not pinned") {
			t.Fatalf("panic message %q", msg)
		}
	}()
	pg.Unpin()
}

// TestFaultReadErrorOnShortLastPage injects a read error on the fault of
// a file's partial last page: Get must fail rather than return a zero
// page that a later write-back would store over the real bytes.
func TestFaultReadErrorOnShortLastPage(t *testing.T) {
	fsys := vfs.NewFaultFS()
	if err := vfs.WriteFile(fsys, "s.db", []byte("twelve bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenFS(fsys, "s.db", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fsys.AddFault(vfs.Fault{Op: vfs.OpRead, Nth: 1, Kind: vfs.KindErr})
	if pg, err := c.Get(0); err == nil {
		pg.Unpin()
		t.Fatal("Get swallowed the injected read error")
	} else if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Get error = %v, want the injected fault", err)
	}
	pg, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin()
	if got := string(pg.Data()[:12]); got != "twelve bytes" {
		t.Fatalf("page 0 starts %q after the fault cleared", got)
	}
	for i, b := range pg.Data()[12:] {
		if b != 0 {
			t.Fatalf("byte %d past EOF = %#x", 12+i, b)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	c, err := Open(filepath.Join(b.TempDir(), "s.db"), 16)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pg, _ := c.Get(0)
	pg.Unpin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, _ := c.Get(0)
		pg.Unpin()
	}
}

// BenchmarkGetFault cycles through twice as many pages as the cache
// holds, so every Get evicts a page and faults one in from the file.
func BenchmarkGetFault(b *testing.B) {
	const capacity, ids = 16, 32
	c, err := Open(filepath.Join(b.TempDir(), "s.db"), capacity)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for id := int64(0); id < ids; id++ {
		pg, _ := c.Get(id)
		pg.MarkDirty()
		pg.Unpin()
	}
	if err := c.FlushAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := c.Get(int64(i % ids))
		if err != nil {
			b.Fatal(err)
		}
		pg.Unpin()
	}
}

// TestStaleReferencesToReusedFrame reuses page 0's frame for page 1,
// then acts as a lookup that read the page table before the eviction
// and as a second Unpin of page 0: neither may pin or unpin page 1.
func TestStaleReferencesToReusedFrame(t *testing.T) {
	c := openTemp(t, 1)
	stale, err := c.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	stale.Unpin()
	frame := (*c.table.Load())[0].Load()
	pg, err := c.Get(1) // reuses page 0's frame
	if err != nil {
		t.Fatal(err)
	}
	if frame != pg.p {
		t.Fatal("page 1 did not reuse page 0's frame")
	}
	if frame.pin(0) {
		t.Fatal("a stale lookup of page 0 pinned the frame holding page 1")
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("stale Unpin did not panic")
			}
		}()
		stale.Unpin()
	}()
	if n := c.Pinned(); n != 1 {
		t.Fatalf("%d pages pinned after the stale Unpin, want page 1's", n)
	}
	pg.Unpin()
}

// TestConcurrentAccess hammers a cache from many goroutines mixing
// hits, faults, evictions and write-backs; run under -race it checks
// the lock-free hit path against the fault path. Every Get counts as
// exactly one hit or one fault.
func TestConcurrentAccess(t *testing.T) {
	c := openTemp(t, 128)
	const (
		goroutines = 8
		iters      = 400
		idSpace    = 512 // 4x capacity so evictions happen constantly
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := rng.Int63n(idSpace)
				pg, err := c.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if rng.Intn(2) == 0 {
					pg.Write(func(buf []byte) { buf[0] = byte(id) })
				} else {
					pg.Read(func(buf []byte) {
						if buf[0] != 0 && buf[0] != byte(id) {
							errs <- fmt.Errorf("page %d: corrupt byte %d", id, buf[0])
						}
					})
				}
				pg.Unpin()
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Faults == 0 || st.Evictions == 0 {
		t.Fatalf("expected faults and evictions, got %+v", st)
	}
	if st.Hits+st.Faults != goroutines*iters {
		t.Fatalf("%d hits + %d faults over %d Gets", st.Hits, st.Faults, goroutines*iters)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
}

// stamp is the content of page id in the stress test: every 8-byte word
// holds the id, so a read of any other page's bytes shows.
func stamp(id int64) []byte {
	b := make([]byte, PageSize)
	for i := 0; i < PageSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(id))
	}
	return b
}

// TestConcurrentStampedPages stresses a 4-frame cache over 64 pages,
// each stamped with its id. Two readers pin random pages and check the
// stamp, a writer rewrites pages (dirtying them, so evictions write
// back) and Cool runs concurrently. At most three pages are pinned at
// once, so every Get must find a frame. No read may see another page's
// bytes, every Get is one hit or one fault, and no pin may be left.
func TestConcurrentStampedPages(t *testing.T) {
	const pages, readers, iters = 64, 2, 3000
	c := openTemp(t, 4)
	stamps := make([][]byte, pages)
	for id := range stamps {
		stamps[id] = stamp(int64(id))
		pg, err := c.Get(int64(id))
		if err != nil {
			t.Fatal(err)
		}
		pg.Write(func(buf []byte) { copy(buf, stamps[id]) })
		pg.Unpin()
	}
	c.ResetStats()
	var gets atomic.Uint64
	var workers, cooler sync.WaitGroup
	errs := make(chan error, readers+2)
	work := func(seed int64, write bool) {
		defer workers.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < iters; i++ {
			id := rng.Int63n(pages)
			pg, err := c.Get(id)
			gets.Add(1)
			if err != nil {
				errs <- err
				return
			}
			var bad bool
			pg.Read(func(buf []byte) { bad = !bytes.Equal(buf, stamps[id]) })
			if !bad && write {
				pg.Write(func(buf []byte) { copy(buf, stamps[id]) })
			}
			pg.Unpin()
			if bad {
				errs <- fmt.Errorf("page %d read another page's bytes", id)
				return
			}
		}
	}
	workers.Add(readers + 1)
	for r := 0; r < readers; r++ {
		go work(int64(r), false)
	}
	go work(readers, true)
	done := make(chan struct{})
	cooler.Add(1)
	go func() {
		defer cooler.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := c.Cool(); err != nil {
				errs <- err
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	workers.Wait()
	close(done)
	cooler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.Pinned(); n != 0 {
		t.Fatalf("%d pages pinned after every Unpin", n)
	}
	st := c.Stats()
	if st.Hits+st.Faults != gets.Load() || st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("stats %+v over %d Gets", st, gets.Load())
	}
}

func BenchmarkGetHitParallel(b *testing.B) {
	const ids = 64
	c, err := Open(filepath.Join(b.TempDir(), "s.db"), ids)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for id := int64(0); id < ids; id++ {
		pg, _ := c.Get(id)
		pg.Unpin()
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seed.Add(7)
		for pb.Next() {
			pg, err := c.Get(id % ids)
			if err != nil {
				b.Error(err)
				return
			}
			pg.Unpin()
			id++
		}
	})
}
