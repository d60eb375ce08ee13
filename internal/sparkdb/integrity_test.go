package sparkdb

import (
	"strings"
	"testing"

	"twigraph/internal/graph"
)

// buildSmall creates two users, two tweets, follows and tweets edges,
// and an indexed uid attribute.
func buildSmall(t *testing.T) (*DB, []uint64) {
	t.Helper()
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	follows, err := db.NewEdgeType("follows", true)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.NewAttribute(user, "uid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}
	var oids []uint64
	for i := 0; i < 4; i++ {
		o, err := db.NewNode(user)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttribute(o, uid, graph.IntValue(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		if _, err := db.NewEdge(follows, oids[e[0]], oids[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return db, oids
}

func TestIntegrityClean(t *testing.T) {
	db, _ := buildSmall(t)
	r := db.CheckIntegrity()
	if !r.OK() {
		t.Fatalf("clean db failed integrity check:\n%s", r)
	}
	if r.Objects != 8 || r.Edges != 4 || r.Attrs != 4 {
		t.Errorf("coverage wrong: %+v", r)
	}
}

func TestIntegrityDetectsMissingLink(t *testing.T) {
	db, oids := buildSmall(t)
	ti := db.types[db.typesByName["follows"]-1]
	// Drop the first edge from its tail's link bitmap.
	for _, b := range ti.outLinks {
		var victim uint64
		b.ForEach(func(oid uint64) bool { victim = oid; return false })
		b.Remove(victim)
		break
	}
	_ = oids
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("missing link passed integrity check")
	}
	if !strings.Contains(r.String(), "outLinks") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsDanglingEndpoint(t *testing.T) {
	db, oids := buildSmall(t)
	// Remove a node from its type bitmap while edges still reference it.
	ti := db.types[db.typesByName["user"]-1]
	ti.objects.Remove(oids[1])
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("dangling endpoint passed integrity check")
	}
}

func TestIntegrityDetectsIndexDrift(t *testing.T) {
	db, oids := buildSmall(t)
	user := db.typesByName["user"]
	uid := db.types[user-1].attrsByName["uid"]
	ai := db.attrs[uid-1]
	// Re-point the stored value without updating the index.
	ai.put(oids[0], graph.IntValue(999))
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("index drift passed integrity check")
	}
	if !strings.Contains(r.String(), "index") {
		t.Errorf("unexpected violations:\n%s", r)
	}
}

func TestIntegrityDetectsPhantomObject(t *testing.T) {
	db, _ := buildSmall(t)
	ti := db.types[db.typesByName["user"]-1]
	// A member OID beyond the allocator range.
	ti.objects.Add(makeOID(ti.id, ti.nextSeq+7))
	r := db.CheckIntegrity()
	if r.OK() {
		t.Fatal("phantom object passed integrity check")
	}
}

func TestIntegritySurvivesSaveLoad(t *testing.T) {
	db, _ := buildSmall(t)
	path := t.TempDir() + "/img.skd"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Fatalf("loaded image failed integrity check:\n%s", r)
	}
}
