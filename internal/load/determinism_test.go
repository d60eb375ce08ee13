package load

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
)

// storeFiles are the neodb record stores whose bytes fully determine
// query results. Index snapshots and the JSON catalog serialise map
// contents and are legitimately order-dependent, so they are excluded:
// the determinism contract is about graph data, not auxiliary encodings.
var storeFiles = []string{"nodes.store", "rels.store", "props.store", "strings.store", "groups.store"}

// TestNeoImportDeterministicAcrossWorkers imports the same CSV dir with
// a serial pipeline and an 8-worker pipeline and requires byte-identical
// record stores. The pipeline parallelises parsing and id resolution but
// applies batches in file order on one goroutine, so record allocation
// order — and therefore every store byte — must not depend on the
// worker count.
func TestNeoImportDeterministicAcrossWorkers(t *testing.T) {
	csvDir, _ := generate(t, smallCfg())
	dirs := map[int]string{}
	for _, workers := range []int{1, 8} {
		dbDir := filepath.Join(t.TempDir(), fmt.Sprintf("neo-w%d", workers))
		res, err := BuildNeo(csvDir, dbDir, neodb.Config{CachePages: 256, ImportWorkers: workers}, 50)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Store.Close(); err != nil {
			t.Fatalf("workers=%d close: %v", workers, err)
		}
		dirs[workers] = dbDir
	}
	for _, name := range storeFiles {
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[8], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between workers=1 (%d bytes) and workers=8 (%d bytes)", name, len(a), len(b))
		}
	}
}

// TestSparkImportDeterministicAcrossWorkers does the sparkdb half of the
// differential: the persisted image after a serial load and after an
// 8-worker load must match byte-for-byte. This exercises both the
// batch bitmap kernels (AddRange over each batch's OID run) and the
// OID-sorted attribute serialisation in Save.
func TestSparkImportDeterministicAcrossWorkers(t *testing.T) {
	csvDir, _ := generate(t, smallCfg())
	images := map[int][]byte{}
	for _, workers := range []int{1, 8} {
		img := filepath.Join(t.TempDir(), fmt.Sprintf("spark-w%d.img", workers))
		if _, err := BuildSpark(csvDir, sparkdb.ScriptOptions{BatchRows: 50, Workers: workers, ImagePath: img}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := os.ReadFile(img)
		if err != nil {
			t.Fatal(err)
		}
		images[workers] = data
	}
	if !bytes.Equal(images[1], images[8]) {
		t.Errorf("sparkdb image differs between workers=1 (%d bytes) and workers=8 (%d bytes)", len(images[1]), len(images[8]))
	}
}
