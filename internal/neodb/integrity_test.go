package neodb

import (
	"fmt"
	"strings"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/storage"
)

func TestIntegrityCleanStore(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)

	// Push one node over the dense threshold so group chains are
	// exercised, then delete a relationship and a node so free lists
	// and unlink paths are covered too.
	user := db.Label("user")
	follows := db.RelType("follows")
	likes := db.RelType("likes")
	tx := db.Begin()
	var extra []graph.NodeID
	for i := 0; i < DefaultDenseThreshold+10; i++ {
		n := tx.CreateNode(user, nil)
		extra = append(extra, n)
		if i%2 == 0 {
			tx.CreateRel(follows, ids[1], n)
		} else {
			tx.CreateRel(likes, n, ids[1])
		}
	}
	tx.CreateRel(follows, ids[1], ids[1]) // self-loop
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	rel := tx.CreateRel(follows, extra[0], extra[1])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	tx.DeleteRel(rel)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	r := db.CheckIntegrity()
	if !r.OK() {
		t.Fatalf("clean store failed integrity check:\n%s", r)
	}
	if r.Nodes == 0 || r.Rels == 0 || r.Groups == 0 {
		t.Errorf("check visited nothing: %+v", r)
	}
}

func TestIntegrityDetectsDeadChainMember(t *testing.T) {
	db := openTemp(t)
	seedSocial(t, db)

	// Mark relationship 1 dead without unlinking it: chains now reach
	// a record that is not in use.
	rec, err := db.rels.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	rec.InUse = false
	if err := db.rels.Put(1, rec); err != nil {
		t.Fatal(err)
	}
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("corrupted chain passed integrity check")
	}
	if !strings.Contains(r.String(), "dead relationship") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsDegreeMismatch(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)

	nrec, err := db.nodes.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	nrec.DegOut += 3
	if err := db.nodes.Put(ids[1], nrec); err != nil {
		t.Fatal(err)
	}
	if r := db.CheckIntegrity(); r.OK() {
		t.Fatal("degree-cache mismatch passed integrity check")
	}
}

func TestIntegrityDetectsChainCycle(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)

	// Point a relationship's next pointer back at itself.
	nrec, err := db.nodes.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	first := nrec.FirstRel
	rrec, err := db.rels.Get(first)
	if err != nil {
		t.Fatal(err)
	}
	if rrec.Src == ids[1] {
		rrec.SrcNext = first
	} else {
		rrec.DstNext = first
	}
	if err := db.rels.Put(first, rrec); err != nil {
		t.Fatal(err)
	}
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("chain cycle passed integrity check")
	}
	if !strings.Contains(r.String(), "terminate") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsFreeListOverlap(t *testing.T) {
	db := openTemp(t)
	seedSocial(t, db)
	// Release a live node id without clearing the record.
	db.nodes.RecordFile.Release(uint64(1))
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("free/in-use overlap passed integrity check")
	}
	if !strings.Contains(r.String(), "both free and in use") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsLabelScanDrift(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	db.labelScan.Remove(db.Label("user"), ids[3])
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("label scan drift passed integrity check")
	}
	if !strings.Contains(r.String(), "label scan") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsStaleIndexEntry(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	ix := db.index(db.Label("user"), db.PropKey("uid"))
	if ix == nil {
		t.Fatal("no uid index")
	}
	// Index node 1 under a value it does not store.
	ix.Add(graph.IntValue(42), uint64(ids[1]))
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("stale index entry passed integrity check")
	}
}

// A live node missing from its index is a row that a label scan pruned
// by the index would silently drop.
func TestIntegrityDetectsMissingIndexEntry(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	ix := db.index(db.Label("user"), db.PropKey("uid"))
	ix.Remove(graph.IntValue(3), uint64(ids[3]))
	r := db.CheckIntegrity()
	if r.Total != 1 {
		t.Fatalf("want exactly one violation, got:\n%s", r)
	}
	want := fmt.Sprintf("index (user,uid): node %d stores 3 but is not posted under it", ids[3])
	if r.Violations[0] != want {
		t.Errorf("violation = %q, want %q", r.Violations[0], want)
	}
}

// Integrity checking must not disturb the store.
func TestIntegrityIsReadOnly(t *testing.T) {
	db := openTemp(t)
	seedSocial(t, db)
	before := db.NodeCount()
	_ = db.CheckIntegrity()
	if db.NodeCount() != before {
		t.Error("check mutated the store")
	}
	var rec storage.NodeRecord
	var err error
	if rec, err = db.nodes.Get(1); err != nil || !rec.InUse {
		t.Errorf("node 1 after check: %+v err %v", rec, err)
	}
}
