package sparkdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
)

// buildBulk creates a database with enough contiguous structure for run
// compression to bite: n users loaded through the bulk path, each
// following the next k users (wrapping), uid attribute indexed.
func buildBulk(t *testing.T, n, k int) *DB {
	t.Helper()
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	follows, err := db.NewEdgeType("follows", false)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.NewAttribute(user, "uid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]uint64, n)
	for i := 0; i < n; i++ {
		oid, err := db.NewNode(user)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttribute(oid, uid, graph.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
		oids[i] = oid
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			if _, err := db.NewEdge(follows, oids[i], oids[(i+j)%n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = follows
	return db
}

func saveImage(t *testing.T, db *DB, name string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestImageV2RoundTripAndLegacy pins the image format contract: Save
// writes v2, a v2 image loads back and re-saves byte-identically, and a
// legacy v1 image still loads (TestLegacyImageGolden).
func TestImageV2RoundTripAndLegacy(t *testing.T) {
	db := buildBulk(t, 2000, 4)
	v2 := saveImage(t, db, "v2.img")
	if magic := binary.LittleEndian.Uint32(v2); magic != imageMagicV2 {
		t.Fatalf("image magic %#x, want SKD2 %#x", magic, imageMagicV2)
	}
	path := filepath.Join(t.TempDir(), "v2.img")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("loading v2 image: %v", err)
	}
	if got := saveImage(t, loaded, "v2-resaved.img"); !bytes.Equal(got, v2) {
		t.Fatalf("v2 image round trip diverged: resaved %d bytes, want %d", len(got), len(v2))
	}
}

// TestLegacyImageGolden loads testdata/legacy-v1.img, a v1 image of
// buildBulk(500, 3) with compression off, written by commit 3149df9
// (the last commit whose Save could still write v1). Re-saved, it must
// be byte-identical to the v2 image of a fresh buildBulk(500, 3), and
// that image at most 70% of the legacy one's size.
func TestLegacyImageGolden(t *testing.T) {
	const golden = "testdata/legacy-v1.img"
	legacy, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if magic := binary.LittleEndian.Uint32(legacy); magic != imageMagic {
		t.Fatalf("golden image magic %#x, want SKD1 %#x", magic, imageMagic)
	}
	loaded, err := Load(golden)
	if err != nil {
		t.Fatalf("loading legacy image: %v", err)
	}
	if r := loaded.CheckIntegrity(); !r.OK() {
		t.Fatalf("legacy image has violations:\n%s", r)
	}
	got := saveImage(t, loaded, "resaved.img")
	want := saveImage(t, buildBulk(t, 500, 3), "fresh.img")
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved legacy image (%d bytes) differs from a fresh build's (%d bytes)", len(got), len(want))
	}
	if len(want) > len(legacy)*7/10 {
		t.Errorf("v2 image %d bytes, want <= 70%% of the v1 image (%d bytes)", len(want), len(legacy))
	}
}

// TestImageV2ByteStable checks save determinism: saving the same
// compressed database twice yields identical bytes, independent of the
// bitmaps' construction history (Optimize canonicalises before write).
func TestImageV2ByteStable(t *testing.T) {
	db := buildBulk(t, 500, 3)
	a := saveImage(t, db, "a.img")
	b := saveImage(t, db, "b.img")
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated saves differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestBitmapStatsAndGauges checks the container-mix accounting: after
// Optimize a bulk-loaded database reports run containers, the gauges
// mirror the stats, and MemBytes is positive.
func TestBitmapStatsAndGauges(t *testing.T) {
	db := buildBulk(t, 3000, 2)
	st := db.Optimize()
	if st.Runs == 0 {
		t.Fatalf("no run containers after Optimize on bulk data: %+v", st)
	}
	if st.MemBytes <= 0 {
		t.Fatalf("MemBytes %d", st.MemBytes)
	}
	if got := db.Obs().Gauge(GBitmapRunContainers).Load(); got != int64(st.Runs) {
		t.Fatalf("gauge %s = %d, stats %d", GBitmapRunContainers, got, st.Runs)
	}
	if got := db.Obs().Gauge(GBitmapMemBytes).Load(); got != int64(st.MemBytes) {
		t.Fatalf("gauge %s = %d, stats %d", GBitmapMemBytes, got, st.MemBytes)
	}
}

// TestQueriesUnchangedByOptimize runs a neighborhood probe before and
// after Optimize and after thawing every bitmap back to array/bitset
// containers — the representation must be invisible to reads.
func TestQueriesUnchangedByOptimize(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")

	probe := func() [][]uint64 {
		var out [][]uint64
		for i := 1; i <= 5; i++ {
			nbrs := db.Neighbors(objs[key("u", i)], follows, graph.Outgoing)
			out = append(out, nbrs.Slice())
		}
		return out
	}

	before := probe()
	db.Optimize()
	after := probe()
	db.mu.Lock()
	db.forEachBitmap(func(b *bitmap.Bitmap) { b.Thaw() })
	db.mu.Unlock()
	thawed := probe()
	for i := range before {
		if !equalU64(before[i], after[i]) || !equalU64(before[i], thawed[i]) {
			t.Fatalf("probe %d diverged: before %v, optimized %v, thawed %v", i+1, before[i], after[i], thawed[i])
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoadRejectsCorruptCounts sets a type-name length and an
// attribute's value count of an image to values its bytes cannot hold:
// Load must return an error naming the count, before the checksum is
// reached and without sizing anything from the count.
func TestLoadRejectsCorruptCounts(t *testing.T) {
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewAttribute(user, "uid", graph.KindInt, true); err != nil {
		t.Fatal(err)
	}
	img := saveImage(t, db, "empty.img")
	const trailer = 8
	for _, tc := range []struct {
		name string
		off  int
		put  func([]byte)
	}{
		{"string length", 24, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<31) }},
		{"value count", len(img) - trailer - 8, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<40) }},
	} {
		bad := append([]byte(nil), img...)
		tc.put(bad[tc.off:])
		path := filepath.Join(t.TempDir(), "bad.img")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: Load error %v, want one naming the %s", tc.name, err, tc.name)
		}
	}
}
