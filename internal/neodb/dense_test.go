package neodb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

func openDense(t *testing.T, threshold int) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Config{CachePages: 256, DenseThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestDenseConversionPreservesChains pushes a hub past the threshold
// and checks every typed and untyped view before and after conversion.
func TestDenseConversionPreservesChains(t *testing.T) {
	db := openDense(t, 5)
	user := db.Label("user")
	follows := db.RelType("follows")
	mentions := db.RelType("mentions")

	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	var spokes []graph.NodeID
	for i := 0; i < 8; i++ {
		spokes = append(spokes, tx.CreateNode(user, nil))
	}
	// 3 follows out, 2 follows in, 2 mentions out, 1 mention in = 8.
	tx.CreateRel(follows, hub, spokes[0])
	tx.CreateRel(follows, hub, spokes[1])
	tx.CreateRel(follows, hub, spokes[2])
	tx.CreateRel(follows, spokes[3], hub)
	tx.CreateRel(follows, spokes[4], hub)
	tx.CreateRel(mentions, hub, spokes[5])
	tx.CreateRel(mentions, hub, spokes[6])
	tx.CreateRel(mentions, spokes[7], hub)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	n, err := db.nodes.Get(hub)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Dense {
		t.Fatal("hub not converted to dense")
	}
	count := func(typ graph.TypeID, dir graph.Direction) int {
		c := 0
		if err := db.Relationships(hub, typ, dir, func(Rel) bool { c++; return true }); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if got := count(follows, graph.Outgoing); got != 3 {
		t.Errorf("follows out = %d", got)
	}
	if got := count(follows, graph.Incoming); got != 2 {
		t.Errorf("follows in = %d", got)
	}
	if got := count(mentions, graph.Outgoing); got != 2 {
		t.Errorf("mentions out = %d", got)
	}
	if got := count(mentions, graph.Incoming); got != 1 {
		t.Errorf("mentions in = %d", got)
	}
	if got := count(graph.NilType, graph.Any); got != 8 {
		t.Errorf("all rels = %d", got)
	}
	if d, _ := db.Degree(hub, graph.Outgoing); d != 5 {
		t.Errorf("DegOut = %d", d)
	}
	if d, _ := db.Degree(hub, graph.Incoming); d != 3 {
		t.Errorf("DegIn = %d", d)
	}
}

// TestDenseTypedTraversalSkipsOtherTypes verifies the whole point of
// relationship groups: a typed walk from a dense hub touches far fewer
// relationship records than a mixed chain walk would.
func TestDenseTypedTraversalSkipsOtherTypes(t *testing.T) {
	db := openDense(t, 10)
	user := db.Label("user")
	follows := db.RelType("follows")
	mentions := db.RelType("mentions")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	// 5 follows and 200 mentions.
	for i := 0; i < 5; i++ {
		tx.CreateRel(follows, hub, tx.CreateNode(user, nil))
	}
	for i := 0; i < 200; i++ {
		tx.CreateRel(mentions, hub, tx.CreateNode(user, nil))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	accesses := func() uint64 { cs := db.rels.CacheStats(); return cs.Hits + cs.Faults }
	before := accesses()
	n := 0
	if err := db.Relationships(hub, follows, graph.Outgoing, func(Rel) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	relHits := accesses() - before
	if n != 5 {
		t.Fatalf("follows out = %d", n)
	}
	// A mixed chain would cost ~205 relationship fetches; the group
	// chain costs exactly the 5 members.
	if relHits > 10 {
		t.Errorf("typed traversal fetched %d relationship records, want ~5", relHits)
	}
}

// TestDenseSelfLoops checks self-loop visibility in every direction on
// a dense node.
func TestDenseSelfLoops(t *testing.T) {
	db := openDense(t, 3)
	user := db.Label("user")
	follows := db.RelType("follows")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	a := tx.CreateNode(user, nil)
	tx.CreateRel(follows, hub, a)
	tx.CreateRel(follows, a, hub)
	loop := tx.CreateRel(follows, hub, hub) // pushes past threshold 3
	tx.CreateRel(follows, hub, tx.CreateNode(user, nil))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n, _ := db.nodes.Get(hub)
	if !n.Dense {
		t.Fatal("hub not dense")
	}
	seen := map[graph.Direction]int{}
	for _, dir := range []graph.Direction{graph.Outgoing, graph.Incoming, graph.Any} {
		db.Relationships(hub, follows, dir, func(r Rel) bool {
			if r.ID == loop {
				seen[dir]++
			}
			return true
		})
	}
	if seen[graph.Outgoing] != 1 || seen[graph.Incoming] != 1 || seen[graph.Any] != 1 {
		t.Errorf("self-loop visibility = %v (want once per direction)", seen)
	}
	// Delete the loop; chains stay intact.
	tx2 := db.Begin()
	tx2.DeleteRel(loop)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	c := 0
	db.Relationships(hub, follows, graph.Any, func(Rel) bool { c++; return true })
	if c != 3 {
		t.Errorf("rels after loop delete = %d", c)
	}
}

// TestDenseDeleteAndNodeRemoval empties a dense node and deletes it.
func TestDenseDeleteAndNodeRemoval(t *testing.T) {
	db := openDense(t, 4)
	user := db.Label("user")
	follows := db.RelType("follows")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	var rels []graph.EdgeID
	for i := 0; i < 8; i++ {
		rels = append(rels, tx.CreateRel(follows, hub, tx.CreateNode(user, nil)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Delete from the middle, head and tail of the group chain.
	tx2 := db.Begin()
	for _, i := range []int{3, 7, 0} {
		tx2.DeleteRel(rels[i])
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	c := 0
	db.Relationships(hub, follows, graph.Outgoing, func(Rel) bool { c++; return true })
	if c != 5 {
		t.Fatalf("rels after deletes = %d", c)
	}
	// Delete the rest, then the node (groups must be released).
	tx3 := db.Begin()
	for _, i := range []int{1, 2, 4, 5, 6} {
		tx3.DeleteRel(rels[i])
	}
	tx3.DeleteNode(hub)
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NodeByID(hub); err == nil {
		t.Error("dense node still readable after delete")
	}
}

// TestDenseNodeDeleteRejectedWhileEdgesRemain ensures the group check
// guards deletion.
func TestDenseNodeDeleteRejectedWhileEdgesRemain(t *testing.T) {
	db := openDense(t, 2)
	user := db.Label("user")
	follows := db.RelType("follows")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	for i := 0; i < 4; i++ {
		tx.CreateRel(follows, hub, tx.CreateNode(user, nil))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	tx2.DeleteNode(hub)
	if err := tx2.Commit(); err == nil {
		t.Error("dense node with edges deleted")
	}
}

// TestDenseModelEquivalence runs the random chain-store model test with
// a tiny threshold so every node goes dense.
func TestDenseModelEquivalence(t *testing.T) {
	db := openDense(t, 3)
	user := db.Label("user")
	follows := db.RelType("follows")
	mentions := db.RelType("mentions")
	types := []graph.TypeID{follows, mentions}

	const nNodes = 15
	rng := rand.New(rand.NewSource(7))
	tx := db.Begin()
	nodes := make([]graph.NodeID, nNodes)
	for i := range nodes {
		nodes[i] = tx.CreateNode(user, nil)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	type edge struct {
		id       graph.EdgeID
		t        graph.TypeID
		src, dst int
	}
	var live []edge
	check := func() {
		t.Helper()
		for i, n := range nodes {
			for _, typ := range types {
				wantOut, wantIn := 0, 0
				for _, e := range live {
					if e.t != typ {
						continue
					}
					if e.src == i {
						wantOut++
					}
					if e.dst == i {
						wantIn++
					}
				}
				gotOut, gotIn := 0, 0
				db.Relationships(n, typ, graph.Outgoing, func(Rel) bool { gotOut++; return true })
				db.Relationships(n, typ, graph.Incoming, func(Rel) bool { gotIn++; return true })
				if gotOut != wantOut || gotIn != wantIn {
					t.Fatalf("node %d type %d: out %d/%d in %d/%d", i, typ, gotOut, wantOut, gotIn, wantIn)
				}
			}
		}
	}
	for round := 0; round < 25; round++ {
		tx := db.Begin()
		for k := 0; k < 6; k++ {
			s, d := rng.Intn(nNodes), rng.Intn(nNodes)
			typ := types[rng.Intn(2)]
			id := tx.CreateRel(typ, nodes[s], nodes[d])
			live = append(live, edge{id, typ, s, d})
		}
		for k := 0; k < 3 && len(live) > 0; k++ {
			i := rng.Intn(len(live))
			tx.DeleteRel(live[i].id)
			live = append(live[:i], live[i+1:]...)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestDensePersistsAcrossReopen checks group chains survive restart.
func TestDensePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 128, DenseThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	user := db.Label("user")
	follows := db.RelType("follows")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	for i := 0; i < 10; i++ {
		tx.CreateRel(follows, hub, tx.CreateNode(user, nil))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Config{CachePages: 128, DenseThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c := 0
	if err := db2.Relationships(hub, db2.RelTypeID("follows"), graph.Outgoing, func(Rel) bool { c++; return true }); err != nil {
		t.Fatal(err)
	}
	if c != 10 {
		t.Errorf("rels after reopen = %d", c)
	}
}

// TestDenseThresholdBelongsToStore: a store imported at Neo4j's
// threshold keeps it when reopened with a zero Config — a node's 17th
// edge (past DefaultDenseThreshold) leaves it sparse — and refuses to
// open under a different non-zero threshold.
func TestDenseThresholdBelongsToStore(t *testing.T) {
	csvDir := t.TempDir()
	users := "uid,screen_name,followers\n"
	follows := "src,dst\n"
	for uid := 1; uid <= 18; uid++ {
		users += fmt.Sprintf("%d,u%d,0\n", uid, uid)
		if uid > 1 && uid < 18 {
			follows += fmt.Sprintf("1,%d\n", uid) // 16 follows out of user 1
		}
	}
	files := map[string]string{
		"users.csv": users, "follows.csv": follows,
		"tweets.csv": "tid,text\n", "hashtags.csv": "hid,tag\n",
		"posts.csv": "uid,tid\n", "mentions.csv": "tid,uid\n", "tags.csv": "tid,hid\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 64, DenseThreshold: Neo4jDenseThreshold})
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges := ImportDirLayout(csvDir)
	if _, err := db.NewImporter(0, nil).Run(nodes, edges); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	user, uid := db.LabelID("user"), db.PropKeyID("uid")
	hub, ok := db.FindNode(user, uid, graph.IntValue(1))
	last, ok2 := db.FindNode(user, uid, graph.IntValue(18))
	if !ok || !ok2 {
		t.Fatal("imported users not found")
	}
	tx := db.Begin()
	tx.CreateRel(db.RelTypeID("follows"), hub, last)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rec, err := db.nodes.Get(hub)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DegOut != 17 || rec.Dense {
		t.Errorf("hub after its 17th edge: degree %d, dense %v; want 17, sparse", rec.DegOut, rec.Dense)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Config{CachePages: 64, DenseThreshold: DefaultDenseThreshold}); err == nil ||
		!strings.Contains(err.Error(), "dense threshold 50") {
		t.Fatalf("reopen at threshold %d: %v, want a threshold mismatch", DefaultDenseThreshold, err)
	}
	db, err = Open(dir, Config{CachePages: 64, DenseThreshold: Neo4jDenseThreshold})
	if err != nil {
		t.Fatalf("reopen at the store's own threshold: %v", err)
	}
	if got := db.denseThreshold(); got != Neo4jDenseThreshold {
		t.Errorf("threshold after reopen = %d", got)
	}
	db.Close()
}

// TestNewStoreRecordsDenseThreshold: a new store writes its threshold
// to catalog.json at once, and an empty store may still take another.
func TestNewStoreRecordsDenseThreshold(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"dense_threshold": %d`, DefaultDenseThreshold); !strings.Contains(string(data), want) {
		t.Errorf("catalog.json lacks %s:\n%s", want, data)
	}
	db.Close()
	db, err = Open(dir, Config{CachePages: 8, DenseThreshold: 4})
	if err != nil {
		t.Fatalf("empty store refused a new threshold: %v", err)
	}
	defer db.Close()
	if got := db.denseThreshold(); got != 4 {
		t.Errorf("threshold = %d, want 4", got)
	}
}

// TestReplayRelinksDenseGroups replays, from an empty store, commits
// that delete the head of a dense node's group chain and then link new
// relationships into the same group: each link must chain onto the
// group as the unlink left it, not onto the deleted record.
func TestReplayRelinksDenseGroups(t *testing.T) {
	fs := vfs.NewFaultFS()
	cfg := Config{CachePages: 64, SyncCommits: true, DenseThreshold: 4, FS: fs}
	db, err := Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	user := db.Label("user")
	follows := db.RelType("follows")
	if err := db.Sync(); err != nil { // make the names durable
		t.Fatal(err)
	}
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	var spokes []graph.NodeID
	for i := 0; i < 9; i++ {
		spokes = append(spokes, tx.CreateNode(user, nil))
	}
	var rels []graph.EdgeID
	for _, s := range spokes[:6] {
		rels = append(rels, tx.CreateRel(follows, hub, s))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, s := range spokes[6:] {
		tx := db.Begin()
		tx.DeleteRel(rels[len(rels)-1-i]) // the group chain's head
		tx.CreateRel(follows, hub, s)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	outOf := func(db *DB) []graph.NodeID {
		var out []graph.NodeID
		if err := db.Relationships(hub, follows, graph.Outgoing, func(r Rel) bool {
			out = append(out, r.Dst)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := outOf(db)
	if len(want) != 6 {
		t.Fatalf("before the crash: %d followees, want 6", len(want))
	}

	fs.Crash() // nothing was checkpointed: reopening replays every commit
	db2, err := Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Fatalf("integrity after replay:\n%s", r)
	}
	if got := outOf(db2); !reflect.DeepEqual(got, want) {
		t.Errorf("followees after replay = %v, want %v", got, want)
	}
}
