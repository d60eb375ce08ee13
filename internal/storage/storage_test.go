package storage

import (
	"encoding/hex"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"twigraph/internal/graph"
	"twigraph/internal/obs"
	"twigraph/internal/pagecache"
	"twigraph/internal/vfs"
)

func TestRecordFileAllocateReleaseReuse(t *testing.T) {
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, b := f.Allocate(), f.Allocate()
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d,%d", a, b)
	}
	if f.Count() != 2 {
		t.Errorf("Count = %d", f.Count())
	}
	f.Release(a)
	if f.Count() != 1 {
		t.Errorf("Count after release = %d", f.Count())
	}
	if c := f.Allocate(); c != a {
		t.Errorf("Allocate after release = %d, want %d", c, a)
	}
	if f.HighWater() != 2 {
		t.Errorf("HighWater = %d", f.HighWater())
	}
}

func TestRecordFileReadWritePersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.store")
	f, err := OpenRecordFile(path, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Allocate()
	if err := f.Update(id, func(rec []byte) { copy(rec, "abcdef") }); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenRecordFile(path, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.HighWater() != 1 || f2.Count() != 1 {
		t.Errorf("reopened: highwater %d count %d", f2.HighWater(), f2.Count())
	}
	var got string
	if err := f2.Read(id, func(rec []byte) { got = string(rec[:6]) }); err != nil {
		t.Fatal(err)
	}
	if got != "abcdef" {
		t.Errorf("read back %q", got)
	}
}

func TestRecordFileRecordSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.store")
	f, err := OpenRecordFile(path, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	f.Allocate()
	f.Close()
	if _, err := OpenRecordFile(path, 32, 8); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestRecordFileNilRecordRejected(t *testing.T) {
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Read(0, func([]byte) {}); err == nil {
		t.Error("Read(0) accepted")
	}
	if err := f.Update(0, func([]byte) {}); err == nil {
		t.Error("Update(0) accepted")
	}
	if _, err := OpenRecordFile(filepath.Join(t.TempDir(), "x"), 0, 8); err == nil {
		t.Error("record size 0 accepted")
	}
}

func TestRecordFileHitsCount(t *testing.T) {
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var fetches obs.Counter
	f.Instrument(&fetches, pagecache.Instruments{})
	id := f.Allocate()
	f.Update(id, func([]byte) {})
	f.Read(id, func([]byte) {})
	f.Read(id, func([]byte) {})
	if got := fetches.Load(); got != 3 {
		t.Errorf("db hits = %d, want 3", got)
	}
}

func TestRecordsSpanPages(t *testing.T) {
	// 64-byte records: 128 per page. Write across 3 pages.
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 300
	for i := 0; i < n; i++ {
		id := f.Allocate()
		v := byte(i % 251)
		if err := f.Update(id, func(rec []byte) { rec[0] = v }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var got byte
		if err := f.Read(uint64(i+1), func(rec []byte) { got = rec[0] }); err != nil {
			t.Fatal(err)
		}
		if got != byte(i%251) {
			t.Fatalf("record %d = %d", i+1, got)
		}
	}
}

func TestNodeRecordRoundTrip(t *testing.T) {
	rt := func(label uint32, rel, prop uint64, dOut, dIn uint32) bool {
		r := NodeRecord{
			InUse: true, Label: graph.TypeID(label),
			FirstRel: graph.EdgeID(rel), FirstProp: prop,
			DegOut: dOut, DegIn: dIn,
		}
		buf := make([]byte, NodeRecordSize)
		encodeNode(buf, r)
		return decodeNode(buf) == r
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
}

// TestRelRecordRoundTrip draws ids from the 48-bit domain a
// relationship record holds; Put rejects anything wider
// (TestPutRejectsIDsPast48Bits).
func TestRelRecordRoundTrip(t *testing.T) {
	rt := func(typ uint32, src, dst, sp, sn, dp, dn, fp uint64) bool {
		r := RelRecord{
			InUse: true, Type: graph.TypeID(typ),
			Src: graph.NodeID(src & maxID48), Dst: graph.NodeID(dst & maxID48),
			SrcPrev: graph.EdgeID(sp & maxID48), SrcNext: graph.EdgeID(sn & maxID48),
			DstPrev: graph.EdgeID(dp & maxID48), DstNext: graph.EdgeID(dn & maxID48),
			FirstProp: fp & maxID48,
		}
		buf := make([]byte, RelRecordSize)
		encodeRel(buf, r)
		return decodeRel(buf) == r
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRecordRoundTrip(t *testing.T) {
	rt := func(key uint32, payload, next uint64) bool {
		for _, kind := range []graph.Kind{graph.KindInt, graph.KindString, graph.KindBool, graph.KindFloat} {
			r := PropRecord{InUse: true, Key: graph.AttrID(key), Kind: kind, Payload: payload, Next: next}
			buf := make([]byte, PropRecordSize)
			encodeProp(buf, r)
			if decodeProp(buf) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
}

func TestTypedStores(t *testing.T) {
	dir := t.TempDir()
	ns, err := OpenNodeStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	rs, err := OpenRelStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ps, err := OpenPropStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	nid := graph.NodeID(ns.Allocate())
	want := NodeRecord{InUse: true, Label: 3, FirstRel: 9, FirstProp: 4, DegOut: 2, DegIn: 1}
	if err := ns.Put(nid, want); err != nil {
		t.Fatal(err)
	}
	got, err := ns.Get(nid)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("node = %+v, want %+v", got, want)
	}

	eid := graph.EdgeID(rs.Allocate())
	wr := RelRecord{InUse: true, Type: 1, Src: 5, Dst: 6, SrcNext: 2, DstNext: 3}
	if err := rs.Put(eid, wr); err != nil {
		t.Fatal(err)
	}
	gr, err := rs.Get(eid)
	if err != nil {
		t.Fatal(err)
	}
	if gr != wr {
		t.Errorf("rel = %+v, want %+v", gr, wr)
	}

	pid := ps.Allocate()
	wp := PropRecord{InUse: true, Key: 2, Kind: graph.KindInt, Payload: 531, Next: 0}
	if err := ps.Put(pid, wp); err != nil {
		t.Fatal(err)
	}
	gp, err := ps.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if gp != wp {
		t.Errorf("prop = %+v, want %+v", gp, wp)
	}
}

func TestDynStoreShortString(t *testing.T) {
	ds, err := OpenDynStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	id, err := ds.PutString("hello")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.GetString(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestDynStoreEmptyAndLongStrings(t *testing.T) {
	ds, err := OpenDynStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	// Empty string still allocates one block.
	id, err := ds.PutString("")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ds.GetString(id); got != "" {
		t.Errorf("empty round-trip = %q", got)
	}
	// A tweet-length string spans multiple blocks.
	long := strings.Repeat("tweet text with #hashtags and @mentions ", 10)
	id2, err := ds.PutString(long)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.GetString(id2)
	if err != nil {
		t.Fatal(err)
	}
	if got != long {
		t.Errorf("long round-trip mismatch: %d vs %d bytes", len(got), len(long))
	}
}

func TestDynStoreRoundTripProperty(t *testing.T) {
	ds, err := OpenDynStore(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rt := func(s string) bool {
		id, err := ds.PutString(s)
		if err != nil {
			return false
		}
		got, err := ds.GetString(id)
		return err == nil && got == s
	}
	if err := quick.Check(rt, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDynStoreFreeReusesBlocks(t *testing.T) {
	ds, err := OpenDynStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	long := strings.Repeat("x", 200)
	id, err := ds.PutString(long)
	if err != nil {
		t.Fatal(err)
	}
	hw := ds.HighWater()
	if err := ds.FreeString(id); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.PutString(long); err != nil {
		t.Fatal(err)
	}
	if ds.HighWater() != hw {
		t.Errorf("blocks not reused: highwater %d -> %d", hw, ds.HighWater())
	}
}

func TestCoolSurvivesAndFaultsAfter(t *testing.T) {
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id := f.Allocate()
	f.Update(id, func(rec []byte) { rec[0] = 7 })
	if err := f.Cool(); err != nil {
		t.Fatal(err)
	}
	before := f.CacheStats().Faults
	var got byte
	f.Read(id, func(rec []byte) { got = rec[0] })
	if got != 7 {
		t.Errorf("data lost across Cool: %d", got)
	}
	if f.CacheStats().Faults != before+1 {
		t.Error("read after Cool did not fault")
	}
}

// TestCursorAccounting: a cursor reading across pages counts one db hit
// per record and one page cache access (fault or hit) per record, like
// one-shot reads, and holds at most one pin, released by Close.
func TestCursorAccounting(t *testing.T) {
	// 1024-byte records: 8 per page; a one-page cache fails any second
	// concurrent pin.
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 20 // three pages
	for i := 0; i < n; i++ {
		id := f.Allocate()
		if err := f.Update(id, func(rec []byte) { rec[0] = byte(id) }); err != nil {
			t.Fatal(err)
		}
	}
	var fetches obs.Counter
	f.Instrument(&fetches, pagecache.Instruments{})
	cs0 := f.CacheStats()
	c := f.Cursor()
	for id := uint64(1); id <= n; id++ {
		var got byte
		if err := c.Read(id, func(rec []byte) { got = rec[0] }); err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if got != byte(id) {
			t.Fatalf("record %d reads %d", id, got)
		}
	}
	c.Close()
	cs := f.CacheStats()
	if got := fetches.Load(); got != n {
		t.Errorf("db hits %d, want %d", got, n)
	}
	if got := cs.Hits + cs.Faults - cs0.Hits - cs0.Faults; got != n {
		t.Errorf("page cache accesses %d, want %d (one per record)", got, n)
	}
	// The pin is gone: a one-shot read of another page still finds the
	// cache's only frame free.
	if err := f.Read(1, func([]byte) {}); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
}

// TestGroupRecordRoundTrip draws ids from the 48-bit domain a group
// record holds.
func TestGroupRecordRoundTrip(t *testing.T) {
	rt := func(typ uint32, next, out, in uint64) bool {
		r := GroupRecord{InUse: true, Type: graph.TypeID(typ), Next: next & maxID48,
			FirstOut: graph.EdgeID(out & maxID48), FirstIn: graph.EdgeID(in & maxID48)}
		buf := make([]byte, GroupRecordSize)
		encodeGroup(buf, r)
		return decodeGroup(buf) == r
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordsHoldMaxID48: the largest 48-bit id survives a Put/Get
// round trip through both stores, in every id field.
func TestRecordsHoldMaxID48(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenRelStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	gs, err := OpenGroupStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	const m = maxID48
	rel := RelRecord{InUse: true, Type: 1<<32 - 1, Src: m, Dst: m,
		SrcPrev: m, SrcNext: m, DstPrev: m, DstNext: m, FirstProp: m}
	rid := graph.EdgeID(rs.Allocate())
	if err := rs.Put(rid, rel); err != nil {
		t.Fatal(err)
	}
	if got, err := rs.Get(rid); err != nil || got != rel {
		t.Errorf("rel = %+v, want %+v (%v)", got, rel, err)
	}
	grp := GroupRecord{InUse: true, Type: 7, Next: m, FirstOut: m, FirstIn: m}
	gid := gs.Allocate()
	if err := gs.Put(gid, grp); err != nil {
		t.Fatal(err)
	}
	if got, err := gs.Get(gid); err != nil || got != grp {
		t.Errorf("group = %+v, want %+v (%v)", got, grp, err)
	}
}

// TestPutRejectsIDsPast48Bits: an id of 2^48 in any field makes Put
// fail and leaves the stored record as it was.
func TestPutRejectsIDsPast48Bits(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenRelStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	gs, err := OpenGroupStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	const over = maxID48 + 1
	rid := graph.EdgeID(rs.Allocate())
	base := RelRecord{InUse: true, Type: 1, Src: 1, Dst: 2}
	if err := rs.Put(rid, base); err != nil {
		t.Fatal(err)
	}
	for i, mut := range []func(*RelRecord){
		func(r *RelRecord) { r.Src = over },
		func(r *RelRecord) { r.Dst = over },
		func(r *RelRecord) { r.SrcPrev = over },
		func(r *RelRecord) { r.SrcNext = over },
		func(r *RelRecord) { r.DstPrev = over },
		func(r *RelRecord) { r.DstNext = over },
		func(r *RelRecord) { r.FirstProp = over },
	} {
		r := base
		mut(&r)
		if err := rs.Put(rid, r); err == nil || !strings.Contains(err.Error(), "48-bit") {
			t.Errorf("rel field %d: Put(2^48) = %v, want a 48-bit limit error", i, err)
		}
	}
	if got, _ := rs.Get(rid); got != base {
		t.Errorf("rejected Puts changed the record: %+v", got)
	}
	gid := gs.Allocate()
	for i, r := range []GroupRecord{
		{InUse: true, Next: over},
		{InUse: true, FirstOut: over},
		{InUse: true, FirstIn: over},
	} {
		if err := gs.Put(gid, r); err == nil || !strings.Contains(err.Error(), "48-bit") {
			t.Errorf("group field %d: Put(2^48) = %v, want a 48-bit limit error", i, err)
		}
	}
}

// TestRelRecordGolden pins the 48-byte relationship record layout:
// flags, type (u32), then Src, Dst, SrcPrev, SrcNext, DstPrev, DstNext
// and FirstProp as 48-bit little-endian ids, one byte spare.
func TestRelRecordGolden(t *testing.T) {
	r := RelRecord{InUse: true, Type: 3, Src: 0x0102030405, Dst: 6,
		SrcPrev: 7, SrcNext: 0xA0B0C0D0E0F0, DstPrev: 0, DstNext: 9, FirstProp: 0x1234}
	buf := make([]byte, RelRecordSize)
	encodeRel(buf, r)
	const want = "01" + "03000000" +
		"050403020100" + "060000000000" + "070000000000" +
		"f0e0d0c0b0a0" + "000000000000" + "090000000000" +
		"341200000000" + "00"
	if got := hex.EncodeToString(buf); got != want {
		t.Errorf("encoded rel record\n got %s\nwant %s", got, want)
	}
	if decodeRel(buf) != r {
		t.Errorf("golden bytes decode to %+v", decodeRel(buf))
	}
}

// TestOldRelStoreRejected: a rels.store written with the former 64-byte
// records fails to open with the header's record-size mismatch instead
// of being read as 48-byte records.
func TestOldRelStoreRejected(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenRecordFile(filepath.Join(dir, "rels.store"), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	f.Allocate()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenRelStore(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "record size mismatch: file 64, want 48") {
		t.Fatalf("opening a 64-byte rels.store: %v, want a record size mismatch", err)
	}
}

func TestGroupStore(t *testing.T) {
	gs, err := OpenGroupStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	id := gs.Allocate()
	want := GroupRecord{InUse: true, Type: 2, Next: 9, FirstOut: 4, FirstIn: 5}
	if err := gs.Put(id, want); err != nil {
		t.Fatal(err)
	}
	got, err := gs.Get(id)
	if err != nil || got != want {
		t.Errorf("group = %+v, want %+v (%v)", got, want, err)
	}
}

// newRunFile opens a record file of 1024-byte records, 8 per page, on a
// one-page cache (a second concurrent pin fails), holding n records
// whose first byte is their id.
func newRunFile(t *testing.T, fsys vfs.FS, n int) (*RecordFile, *obs.Counter) {
	t.Helper()
	f, err := OpenRecordFileFS(fsys, filepath.Join(t.TempDir(), "r.store"), 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fetches := new(obs.Counter)
	f.Instrument(fetches, pagecache.Instruments{})
	for i := 0; i < n; i++ {
		id := f.Allocate()
		if err := f.Update(id, func(rec []byte) { rec[0] = byte(id) }); err != nil {
			t.Fatal(err)
		}
	}
	return f, fetches
}

// TestReadRunAccounting: a run read over unsorted, repeated ids that
// cross pages hands each record to fn in order and moves the db-hit
// and page cache access counters exactly as len(ids) single reads do.
func TestReadRunAccounting(t *testing.T) {
	f, fetches := newRunFile(t, vfs.OS, 30) // four pages
	ids := []uint64{1, 2, 3, 9, 10, 8, 8, 25, 3, 17, 17, 18, 30, 30, 7}
	accesses := func() uint64 { cs := f.CacheStats(); return cs.Hits + cs.Faults }

	hits0, acc0 := fetches.Load(), accesses()
	c := f.Cursor()
	var got []uint64
	err := c.ReadRun(ids, func(i int, rec []byte) {
		if i != len(got) {
			t.Fatalf("fn(%d) after %d calls", i, len(got))
		}
		got = append(got, uint64(rec[0]))
	})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if got[i] != id {
			t.Fatalf("entry %d: record %d reads %d", i, id, got[i])
		}
	}
	runHits, runAcc := fetches.Load()-hits0, accesses()-acc0

	hits0, acc0 = fetches.Load(), accesses()
	c = f.Cursor()
	for _, id := range ids {
		if err := c.Read(id, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	oneHits, oneAcc := fetches.Load()-hits0, accesses()-acc0

	n := uint64(len(ids))
	if runHits != n || oneHits != n {
		t.Errorf("db hits: run %d, single reads %d, want %d", runHits, oneHits, n)
	}
	if runAcc != n || oneAcc != n {
		t.Errorf("page cache accesses: run %d, single reads %d, want %d", runAcc, oneAcc, n)
	}
}

// TestReadRunNilID: id 0 fails the run after the records before it,
// and the cursor stays usable.
func TestReadRunNilID(t *testing.T) {
	f, _ := newRunFile(t, vfs.OS, 20)
	c := f.Cursor()
	defer c.Close()
	var read []int
	err := c.ReadRun([]uint64{1, 12, 0, 3}, func(i int, _ []byte) { read = append(read, i) })
	if err == nil {
		t.Fatal("ReadRun with id 0 accepted")
	}
	if len(read) != 2 {
		t.Errorf("%d records read before id 0, want 2", len(read))
	}
	if err := c.ReadRun([]uint64{20, 19}, func(int, []byte) {}); err != nil {
		t.Errorf("read after the error: %v", err)
	}
}

// TestReadRunFaultReleasesPin: a read error in the middle of a run is
// returned and leaves no page pinned, so the one-page cache still
// serves a read of any other page.
func TestReadRunFaultReleasesPin(t *testing.T) {
	fsys := vfs.NewFaultFS()
	f, _ := newRunFile(t, fsys, 24) // three pages
	if err := f.Cool(); err != nil {
		t.Fatal(err)
	}
	// The run faults pages 1, 2 and 3 in; the second fault fails.
	fsys.AddFault(vfs.Fault{Op: vfs.OpRead, PathSubstr: "r.store", Nth: 2, Kind: vfs.KindErr})
	c := f.Cursor()
	var read int
	err := c.ReadRun([]uint64{1, 2, 9, 10, 17}, func(int, []byte) { read++ })
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("err = %v, want the injected read error", err)
	}
	if read != 2 {
		t.Errorf("%d records read before the fault, want 2", read)
	}
	if err := f.Read(20, func([]byte) {}); err != nil {
		t.Errorf("read of another page after the fault: %v", err)
	}
	if err := c.ReadRun([]uint64{9, 10}, func(int, []byte) {}); err != nil {
		t.Errorf("cursor after the fault: %v", err)
	}
	c.Close()
}

// TestReadRunSeesWholeRecords runs run reads concurrently with Updates
// of the same page: every record a run hands out is whole, never half
// of one write and half of another. Meaningful under -race too.
func TestReadRunSeesWholeRecords(t *testing.T) {
	f, err := OpenRecordFile(filepath.Join(t.TempDir(), "r.store"), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 16 // one page
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = f.Allocate()
	}
	const rounds = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= rounds; v++ {
			for _, id := range ids {
				f.Update(id, func(rec []byte) {
					for i := range rec {
						rec[i] = byte(v)
					}
				})
			}
		}
	}()
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.Cursor()
			defer c.Close()
			for k := 0; k < rounds; k++ {
				var torn error
				err := c.ReadRun(ids, func(i int, rec []byte) {
					for _, b := range rec {
						if b != rec[0] && torn == nil {
							torn = errors.New("torn record")
						}
					}
				})
				if err == nil {
					err = torn
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkReadRun reads 2 048 consecutive 32-byte records, 256 to a
// page, one Read at a time and as one ReadRun.
func BenchmarkReadRun(b *testing.B) {
	f, err := OpenRecordFile(filepath.Join(b.TempDir(), "r.store"), 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	f.Instrument(new(obs.Counter), pagecache.Instruments{})
	ids := make([]uint64, 2048)
	for i := range ids {
		ids[i] = f.Allocate()
		f.Update(ids[i], func(rec []byte) { rec[0] = byte(i) })
	}
	var sum int
	b.Run("read", func(b *testing.B) {
		c := f.Cursor()
		defer c.Close()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				c.Read(id, func(rec []byte) { sum += int(rec[0]) })
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		c := f.Cursor()
		defer c.Close()
		for i := 0; i < b.N; i++ {
			c.ReadRun(ids, func(_ int, rec []byte) { sum += int(rec[0]) })
		}
	})
}
