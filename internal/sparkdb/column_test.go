package sparkdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twigraph/internal/graph"
)

// TestAttributeColumnSparse sets an attribute on a few seqs only: the
// unset seqs read nil, Select and Save see only the set ones, and a
// write to an object that does not exist is rejected.
func TestAttributeColumnSparse(t *testing.T) {
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	score, err := db.NewAttribute(user, "score", graph.KindInt, false)
	if err != nil {
		t.Fatal(err)
	}
	var oids []uint64
	for i := 0; i < 10; i++ {
		oid, err := db.NewNode(user)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	for _, i := range []int{2, 7} {
		if err := db.SetAttribute(oids[i], score, graph.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, oid := range oids {
		got := db.GetAttribute(oid, score)
		if set := i == 2 || i == 7; got.IsNil() == set {
			t.Errorf("seq %d reads %v", i+1, got)
		}
	}
	before := db.RecordFetches()
	if got := db.Select(score, GreaterEq, graph.IntValue(0)).Slice(); !reflect.DeepEqual(got, []uint64{oids[2], oids[7]}) {
		t.Errorf("Select = %v, want seqs 3 and 8", got)
	}
	if d := db.RecordFetches() - before; d != 2 {
		t.Errorf("scan counted %d fetches, want one per set value (2)", d)
	}
	if ai := db.attrInfo(score); ai.set != 2 {
		t.Errorf("set count %d, want 2", ai.set)
	}
	if err := db.SetAttribute(makeOID(user, 11), score, graph.IntValue(1)); !errors.Is(err, graph.ErrNotFound) {
		t.Errorf("write past the last object: err = %v, want ErrNotFound", err)
	}
	if err := db.SetAttribute(makeOID(user, 0), score, graph.IntValue(1)); !errors.Is(err, graph.ErrNotFound) {
		t.Errorf("write to seq 0: err = %v, want ErrNotFound", err)
	}
	db2 := reload(t, db)
	for _, oid := range oids {
		if a, b := db.GetAttribute(oid, score), db2.GetAttribute(oid, score); !a.Equal(b) {
			t.Errorf("oid %d: %v before save, %v after load", oid, a, b)
		}
	}
	if r := db2.CheckIntegrity(); !r.OK() || r.Attrs != 2 {
		t.Errorf("reloaded sparse column: %s", r)
	}
}

// TestAttributeColumnClear clears values to nil: the set count falls,
// the index entry goes, and clearing an unset value changes nothing.
func TestAttributeColumnClear(t *testing.T) {
	db, oids := buildSmall(t)
	uid := db.FindAttribute(db.FindType("user"), "uid")
	ai := db.attrInfo(uid)
	if ai.set != 4 {
		t.Fatalf("set count %d, want 4", ai.set)
	}
	for i, want := range []int{3, 3} {
		if err := db.SetAttribute(oids[1], uid, graph.NilValue); err != nil {
			t.Fatal(err)
		}
		if ai.set != want {
			t.Errorf("clear %d: set count %d, want %d", i+1, ai.set, want)
		}
	}
	if _, ok := db.FindObject(uid, graph.IntValue(2)); ok {
		t.Error("cleared value still indexed")
	}
	if err := db.SetAttribute(oids[1], uid, graph.IntValue(20)); err != nil {
		t.Fatal(err)
	}
	if ai.set != 4 {
		t.Errorf("set count %d after re-set, want 4", ai.set)
	}
	if r := db.CheckIntegrity(); !r.OK() {
		t.Errorf("integrity after clear and re-set:\n%s", r)
	}
	db2 := reload(t, db)
	if got := db2.GetAttribute(oids[1], uid); got.Int() != 20 {
		t.Errorf("reloaded value %v, want 20", got)
	}
}

// TestGetIntsMatchesLoop checks GetInts against a GetAttribute(...).Int()
// loop: the same values in order, the same record_fetches delta, also
// for OIDs of another type and an unknown attribute.
func TestGetIntsMatchesLoop(t *testing.T) {
	db, objs := buildTiny(t)
	user := db.FindType("user")
	uid := db.FindAttribute(user, "uid")
	tid := db.FindAttribute(db.FindType("tweet"), "tid")
	oids := []uint64{objs["u3"], objs["u1"], objs["t1"], objs["u5"], objs["u3"], makeOID(user, 99)}
	for _, attr := range []graph.AttrID{uid, tid, graph.AttrID(99)} {
		before := db.RecordFetches()
		var loop []int64
		for _, oid := range oids {
			loop = append(loop, db.GetAttribute(oid, attr).Int())
		}
		loopFetches := db.RecordFetches() - before

		before = db.RecordFetches()
		batch := db.GetInts(oids, attr, nil)
		batchFetches := db.RecordFetches() - before

		if !reflect.DeepEqual(batch, loop) {
			t.Errorf("attr %d: GetInts = %v, loop = %v", attr, batch, loop)
		}
		if batchFetches != loopFetches {
			t.Errorf("attr %d: GetInts counted %d fetches, loop %d", attr, batchFetches, loopFetches)
		}
	}
	if got := db.GetInts(oids[:2], uid, nil); got[0] == 0 || got[1] == 0 {
		t.Errorf("uids read as %v, want non-zero", got)
	}
}

// TestNodeBatchKindMismatchCreatesNothing hands NewNodeBatch a value of
// the wrong kind in its second row: the batch is rejected whole, so no
// member, value or sequence number is left behind for a later node to
// collide with.
func TestNodeBatchKindMismatchCreatesNothing(t *testing.T) {
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.NewAttribute(user, "uid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}
	vals := []graph.Value{graph.IntValue(1), graph.StringValue("two"), graph.IntValue(3)}
	n, err := db.NewNodeBatch(user, []graph.AttrID{uid}, len(vals), vals)
	if !errors.Is(err, graph.ErrKindMismatch) || n != 0 {
		t.Fatalf("NewNodeBatch = %d, %v; want 0 rows and ErrKindMismatch", n, err)
	}
	if got := db.CountObjects(user); got != 0 {
		t.Errorf("%d users after a rejected batch, want 0", got)
	}
	if _, ok := db.FindObject(uid, graph.IntValue(1)); ok {
		t.Error("rejected batch left a uid in the index")
	}
	if r := db.CheckIntegrity(); !r.OK() {
		t.Errorf("rejected batch broke integrity:\n%s", r)
	}
}

// reload saves db and loads the image back.
func reload(t *testing.T, db *DB) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.img")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return db2
}

// TestLoadRejectsCorruptValueOIDs rewrites the value OIDs and the
// member range of an image: Load must reject every value OID that is
// not a later seq of an existing object of the attribute's type, and a
// type whose members are not seqs 1..nextSeq, before the checksum is
// reached and before a column is sized from the OID.
func TestLoadRejectsCorruptValueOIDs(t *testing.T) {
	db, oids := buildSmall(t)
	img := saveImage(t, db, "small.img")
	valueOID := func(i int) int {
		var pat [8]byte
		binary.LittleEndian.PutUint64(pat[:], oids[i])
		if bytes.Count(img, pat[:]) != 1 {
			t.Fatalf("OID %#x is not stored exactly once in the image", oids[i])
		}
		return bytes.Index(img, pat[:])
	}
	user := db.FindType("user")
	const nextSeqOff = 4 + 8 + 8 + 4 + 4 + len("user") + 1 + 1
	if got := binary.LittleEndian.Uint64(img[nextSeqOff:]); got != 4 {
		t.Fatalf("user nextSeq at offset %d reads %d, want 4", nextSeqOff, got)
	}
	for _, tc := range []struct {
		name, want string
		off        int
		val        uint64
	}{
		{"other type", "value OID", valueOID(0), makeOID(user+1, 1)},
		{"seq 0", "value OID", valueOID(0), makeOID(user, 0)},
		{"seq past nextSeq", "value OID", valueOID(3), makeOID(user, 1<<39)},
		{"seq not ascending", "value OID", valueOID(2), makeOID(user, 2)},
		{"members not 1..nextSeq", "members", nextSeqOff, 5},
	} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(bad[tc.off:], tc.val)
		path := filepath.Join(t.TempDir(), "bad.img")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: Load error %v, want one naming the %s", tc.name, err, tc.want)
		}
	}
}

// buildScan loads n users in one batch with an unindexed followers
// attribute, the shape of Q1.1's full-scan Select.
func buildScan(b *testing.B, n int) (*DB, graph.AttrID, []uint64) {
	b.Helper()
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		b.Fatal(err)
	}
	followers, err := db.NewAttribute(user, "followers", graph.KindInt, false)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]graph.Value, n)
	for i := range vals {
		vals[i] = graph.IntValue(int64(i * 7 % 101))
	}
	if _, err := db.NewNodeBatch(user, []graph.AttrID{followers}, n, vals); err != nil {
		b.Fatal(err)
	}
	return db, followers, db.Objects(user).Slice()
}

func BenchmarkSelectScan(b *testing.B) {
	db, followers, _ := buildScan(b, 30_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db.Select(followers, Greater, graph.IntValue(50)).IsEmpty() {
			b.Fatal("empty selection")
		}
	}
}

func BenchmarkGetInts(b *testing.B) {
	db, followers, oids := buildScan(b, 30_000)
	b.Run("per-oid", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]int64, 0, len(oids))
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for _, oid := range oids {
				dst = append(dst, db.GetAttribute(oid, followers).Int())
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]int64, 0, len(oids))
		for i := 0; i < b.N; i++ {
			dst = db.GetInts(oids, followers, dst[:0])
		}
	})
}
