package neodb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/wal"
)

func openTemp(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// seedSocial creates: users u1..u5 (uid property), follows edges
// u1->u2, u1->u3, u2->u3, u3->u4, u4->u5.
func seedSocial(t *testing.T, db *DB) map[int]graph.NodeID {
	t.Helper()
	user := db.Label("user")
	uid := db.PropKey("uid")
	if err := db.CreateIndex(user, uid); err != nil {
		t.Fatal(err)
	}
	follows := db.RelType("follows")
	tx := db.Begin()
	ids := map[int]graph.NodeID{}
	for i := 1; i <= 5; i++ {
		ids[i] = tx.CreateNode(user, graph.Properties{
			"uid":         graph.IntValue(int64(i)),
			"screen_name": graph.StringValue(fmt.Sprintf("user%d", i)),
		})
	}
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}} {
		tx.CreateRel(follows, ids[e[0]], ids[e[1]])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestCatalogRegistration(t *testing.T) {
	db := openTemp(t)
	user := db.Label("user")
	if db.Label("user") != user {
		t.Error("Label not stable")
	}
	if db.LabelID("user") != user || db.LabelID("ghost") != graph.NilType {
		t.Error("LabelID wrong")
	}
	if db.LabelName(user) != "user" {
		t.Error("LabelName wrong")
	}
	f := db.RelType("follows")
	if db.RelTypeID("follows") != f || db.RelTypeName(f) != "follows" {
		t.Error("rel type catalog wrong")
	}
	k := db.PropKey("uid")
	if db.PropKeyID("uid") != k || db.PropKeyName(k) != "uid" {
		t.Error("prop key catalog wrong")
	}
}

func TestCreateAndReadNodes(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	n, err := db.NodeByID(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != db.LabelID("user") {
		t.Errorf("label = %d", n.Label)
	}
	v, err := db.NodeProp(ids[1], db.PropKey("uid"))
	if err != nil || v.Int() != 1 {
		t.Errorf("uid = %v err %v", v, err)
	}
	props, err := db.NodeProps(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if props["screen_name"].Str() != "user2" || props["uid"].Int() != 2 {
		t.Errorf("props = %v", props)
	}
	// Missing node.
	if _, err := db.NodeByID(graph.NodeID(999)); err == nil {
		t.Error("ghost node read succeeded")
	}
	// Missing property is nil.
	if v, err := db.NodeProp(ids[1], db.PropKey("missing")); err != nil || !v.IsNil() {
		t.Errorf("missing prop = %v err %v", v, err)
	}
}

func TestRelationshipChains(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	follows := db.RelTypeID("follows")

	var out []graph.NodeID
	err := db.Relationships(ids[1], follows, graph.Outgoing, func(r Rel) bool {
		out = append(out, r.Dst)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("u1 followees = %v", out)
	}
	var in []graph.NodeID
	db.Relationships(ids[3], follows, graph.Incoming, func(r Rel) bool {
		in = append(in, r.Src)
		return true
	})
	if len(in) != 2 {
		t.Fatalf("u3 followers = %v", in)
	}
	// Degrees cached in the node record.
	if d, _ := db.Degree(ids[3], graph.Outgoing); d != 1 {
		t.Errorf("u3 out-degree = %d", d)
	}
	if d, _ := db.Degree(ids[3], graph.Incoming); d != 2 {
		t.Errorf("u3 in-degree = %d", d)
	}
	if d, _ := db.Degree(ids[3], graph.Any); d != 3 {
		t.Errorf("u3 total degree = %d", d)
	}
	// Early stop works.
	count := 0
	db.Relationships(ids[1], follows, graph.Any, func(Rel) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	// Neighbors dedups.
	nbrs, err := db.Neighbors(ids[3], follows, graph.Any)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs.Cardinality() != 3 {
		t.Errorf("u3 neighbors = %v", nbrs.Slice())
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	follows := db.RelTypeID("follows")
	tx := db.Begin()
	tx.CreateRel(follows, ids[1], ids[2])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.Degree(ids[1], graph.Outgoing); d != 3 {
		t.Errorf("degree after parallel edge = %d", d)
	}
	nbrs, _ := db.Neighbors(ids[1], follows, graph.Outgoing)
	if nbrs.Cardinality() != 2 {
		t.Errorf("neighbors after parallel edge = %d", nbrs.Cardinality())
	}
}

func TestSelfLoop(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	follows := db.RelTypeID("follows")
	tx := db.Begin()
	loop := tx.CreateRel(follows, ids[5], ids[5])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.Degree(ids[5], graph.Any); d != 3 { // 1 in + self loop in+out
		t.Errorf("self-loop degree = %d", d)
	}
	seen := 0
	db.Relationships(ids[5], follows, graph.Any, func(r Rel) bool {
		if r.ID == loop {
			seen++
		}
		return true
	})
	if seen != 1 {
		t.Errorf("self-loop visited %d times", seen)
	}
	// Delete it and verify the chain survives.
	tx2 := db.Begin()
	tx2.DeleteRel(loop)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.Degree(ids[5], graph.Any); d != 1 {
		t.Errorf("degree after self-loop delete = %d", d)
	}
}

func TestIndexSeekAndMaintenance(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	user := db.LabelID("user")
	uid := db.PropKeyID("uid")
	if !db.HasIndex(user, uid) {
		t.Fatal("index missing")
	}
	got, ok := db.FindNode(user, uid, graph.IntValue(3))
	if !ok || got != ids[3] {
		t.Errorf("FindNode = %d,%v", got, ok)
	}
	if _, ok := db.FindNode(user, uid, graph.IntValue(99)); ok {
		t.Error("found ghost uid")
	}
	// Updating the property moves the index entry.
	tx := db.Begin()
	tx.SetNodeProp(ids[3], uid, graph.IntValue(33))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.FindNode(user, uid, graph.IntValue(3)); ok {
		t.Error("stale index entry")
	}
	if got, ok := db.FindNode(user, uid, graph.IntValue(33)); !ok || got != ids[3] {
		t.Error("index not updated")
	}
	// Unindexed lookup returns nil (fallback path).
	if db.FindNodes(user, db.PropKey("screen_name"), graph.StringValue("user1")) != nil {
		t.Error("unindexed lookup returned postings")
	}
}

func TestCreateIndexPopulatesExistingData(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	user := db.LabelID("user")
	name := db.PropKey("screen_name")
	if err := db.CreateIndex(user, name); err != nil {
		t.Fatal(err)
	}
	got, ok := db.FindNode(user, name, graph.StringValue("user4"))
	if !ok || got != ids[4] {
		t.Errorf("post-hoc index seek = %d,%v", got, ok)
	}
	// Idempotent.
	if err := db.CreateIndex(user, name); err != nil {
		t.Fatal(err)
	}
}

func TestLabelScanAndCounts(t *testing.T) {
	db := openTemp(t)
	seedSocial(t, db)
	user := db.LabelID("user")
	if db.LabelCount(user) != 5 {
		t.Errorf("LabelCount = %d", db.LabelCount(user))
	}
	if db.NodesByLabel(user).Cardinality() != 5 {
		t.Error("NodesByLabel wrong")
	}
	if db.NodeCount() != 5 {
		t.Errorf("NodeCount = %d", db.NodeCount())
	}
	if db.RelCount() != 5 {
		t.Errorf("RelCount = %d", db.RelCount())
	}
	if db.RelTypeCount(db.RelTypeID("follows")) != 5 {
		t.Errorf("RelTypeCount = %d", db.RelTypeCount(db.RelTypeID("follows")))
	}
}

func TestRollbackDiscardsOps(t *testing.T) {
	db := openTemp(t)
	seedSocial(t, db)
	before := db.NodeCount()
	tx := db.Begin()
	tx.CreateNode(db.Label("user"), graph.Properties{"uid": graph.IntValue(99)})
	tx.Rollback()
	if db.NodeCount() != before {
		t.Error("rollback leaked a node")
	}
	if _, ok := db.FindNode(db.LabelID("user"), db.PropKeyID("uid"), graph.IntValue(99)); ok {
		t.Error("rolled-back node indexed")
	}
	// Tx is done after rollback.
	if err := tx.Commit(); !errors.Is(err, graph.ErrTxDone) {
		t.Errorf("Commit after Rollback = %v", err)
	}
}

func TestDeleteNodeRequiresNoRels(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	tx := db.Begin()
	tx.DeleteNode(ids[1])
	if err := tx.Commit(); err == nil {
		t.Fatal("deleted node with relationships")
	}
	// Delete its rels first, then the node.
	var relIDs []graph.EdgeID
	db.Relationships(ids[1], graph.NilType, graph.Any, func(r Rel) bool {
		relIDs = append(relIDs, r.ID)
		return true
	})
	tx2 := db.Begin()
	for _, r := range relIDs {
		tx2.DeleteRel(r)
	}
	tx2.DeleteNode(ids[1])
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NodeByID(ids[1]); err == nil {
		t.Error("node still readable")
	}
	if _, ok := db.FindNode(db.LabelID("user"), db.PropKeyID("uid"), graph.IntValue(1)); ok {
		t.Error("deleted node still indexed")
	}
	if db.LabelCount(db.LabelID("user")) != 4 {
		t.Error("label scan not updated")
	}
}

func TestDeleteRelMiddleOfChain(t *testing.T) {
	db := openTemp(t)
	user := db.Label("user")
	follows := db.RelType("follows")
	tx := db.Begin()
	hub := tx.CreateNode(user, nil)
	var spokes []graph.NodeID
	var rels []graph.EdgeID
	for i := 0; i < 5; i++ {
		s := tx.CreateNode(user, nil)
		spokes = append(spokes, s)
		rels = append(rels, tx.CreateRel(follows, hub, s))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Delete the middle chain entry.
	tx2 := db.Begin()
	tx2.DeleteRel(rels[2])
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	nbrs, err := db.Neighbors(hub, follows, graph.Outgoing)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs.Cardinality() != 4 || nbrs.Contains(uint64(spokes[2])) {
		t.Errorf("neighbors after middle delete = %v", nbrs.Slice())
	}
	if d, _ := db.Degree(hub, graph.Outgoing); d != 4 {
		t.Errorf("degree = %d", d)
	}
	// Delete head and tail entries too.
	tx3 := db.Begin()
	tx3.DeleteRel(rels[4]) // chain head (most recently inserted)
	tx3.DeleteRel(rels[0]) // chain tail
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	nbrs, _ = db.Neighbors(hub, follows, graph.Outgoing)
	if nbrs.Cardinality() != 2 {
		t.Errorf("neighbors after head/tail delete = %v", nbrs.Slice())
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	ids := seedSocial(t, db)
	u3 := ids[3]
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	user := db2.LabelID("user")
	uid := db2.PropKeyID("uid")
	if user == graph.NilType || uid == graph.NilAttr {
		t.Fatal("catalog lost")
	}
	got, ok := db2.FindNode(user, uid, graph.IntValue(3))
	if !ok || got != u3 {
		t.Errorf("index after reopen = %d,%v", got, ok)
	}
	follows := db2.RelTypeID("follows")
	nbrs, err := db2.Neighbors(got, follows, graph.Incoming)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs.Cardinality() != 2 {
		t.Errorf("chain after reopen = %v", nbrs.Slice())
	}
	if db2.RelTypeCount(follows) != 5 {
		t.Errorf("rel stats after reopen = %d", db2.RelTypeCount(follows))
	}
}

func TestWALRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	ids := seedSocial(t, db)
	// Simulate a crash: WAL has the committed data, but we never call
	// Close/Sync, so store pages may be partially flushed. We cheat by
	// syncing only the WAL and abandoning the DB object.
	if err := db.log.Sync(); err != nil {
		t.Fatal(err)
	}
	// Note: the stores' page caches were never flushed, so on-disk
	// records may be incomplete. Reopen and let recovery replay.
	db2, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	user := db2.LabelID("user")
	uid := db2.PropKeyID("uid")
	// Catalog was never saved (crash before Sync), so labels may be
	// missing; recovery rebuilt records but names require the catalog.
	// Re-register names: idOrCreate is deterministic in registration
	// order, so the same ids come back.
	if user == graph.NilType {
		user = db2.Label("user")
		uid = db2.PropKey("uid")
	}
	got, ok := db2.FindNode(user, uid, graph.IntValue(2))
	_ = got
	// The index snapshot was never written either; recovery replays
	// SetNodeProp which re-adds entries only if the index exists. The
	// index declaration lives in the catalog... so after a true crash
	// the operator re-creates indexes, as after any bulk load.
	if !ok {
		if err := db2.CreateIndex(user, uid); err != nil {
			t.Fatal(err)
		}
		got, ok = db2.FindNode(user, uid, graph.IntValue(2))
	}
	if !ok {
		t.Fatal("node lost after recovery")
	}
	n, err := db2.NodeByID(got)
	if err != nil || n.Label != user {
		t.Errorf("recovered node = %+v err %v", n, err)
	}
	// The relationship chain replayed idempotently: no duplicates.
	follows := db2.RelType("follows")
	d, err := db2.Degree(ids[1], graph.Outgoing)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("u1 out-degree after recovery = %d, want 2", d)
	}
	nbrs, _ := db2.Neighbors(ids[1], follows, graph.Outgoing)
	if nbrs.Cardinality() != 2 {
		t.Errorf("u1 followees after recovery = %v", nbrs.Slice())
	}
}

func TestDBHitsGrowWithTraversal(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	before := db.DBHits()
	db.Neighbors(ids[1], db.RelTypeID("follows"), graph.Outgoing)
	if db.DBHits() <= before {
		t.Error("db hits did not grow")
	}
}

func TestCoolCaches(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	if err := db.CoolCaches(); err != nil {
		t.Fatal(err)
	}
	// Everything still readable (faulted back in).
	if _, err := db.NodeByID(ids[1]); err != nil {
		t.Fatal(err)
	}
}

// TestBorrowedReaders: borrowed Readers and the Readers executions
// hold stay within a file cache's frames; an execution that starts
// while borrowed Readers crowd the frames waits until one is returned;
// and a Reader that keeps a page pinned shows in PinnedPages until it
// closes.
func TestBorrowedReaders(t *testing.T) {
	for _, c := range []struct{ pages, limit int }{{1, 1}, {2, 2}, {63, 63}, {64, 64}, {4096, 4096}} {
		db, err := Open(t.TempDir(), Config{CachePages: c.pages})
		if err != nil {
			t.Fatal(err)
		}
		db.HoldReader()
		if got := db.BorrowReaders(1 << 20); got != c.limit-1 {
			t.Errorf("%d pages, one Reader held: %d borrowed, want %d", c.pages, got, c.limit-1)
		}
		if db.ReadersCrowded() {
			t.Errorf("%d pages: crowded before another execution started", c.pages)
		}
		for i := 0; i < c.limit-1; i++ {
			db.ReturnReader()
		}
		db.ReleaseReader()
		db.Close()
	}

	db, err := Open(t.TempDir(), Config{CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.HoldReader()
	if got := db.BorrowReaders(3); got != 1 {
		t.Fatalf("borrowed %d of a 2-page cache's Readers beside one held, want 1", got)
	}
	started := make(chan struct{})
	go func() {
		db.HoldReader()
		close(started)
	}()
	for !db.ReadersCrowded() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-started:
		t.Fatal("an execution started while a borrowed Reader held its frame")
	case <-time.After(10 * time.Millisecond):
	}
	db.ReturnReader()
	<-started
	if db.ReadersCrowded() || db.BorrowReaders(1) != 0 {
		t.Error("two executions on two frames left a Reader to borrow")
	}
	db.ReleaseReader()
	db.ReleaseReader()

	ids := seedSocial(t, db)
	rd := db.Reader()
	if _, err := rd.NodeByID(ids[1]); err != nil {
		t.Fatal(err)
	}
	if n := db.PinnedPages(); n != 1 {
		t.Errorf("%d pages pinned by one node read, want 1", n)
	}
	rd.Close()
	if n := db.PinnedPages(); n != 0 {
		t.Errorf("%d pages pinned after Close, want 0", n)
	}
}

// TestCloseReportsLeakedReaders: Close fails, naming the counts, when a
// borrowed Reader was not given back, and succeeds once every held and
// borrowed Reader is.
func TestCloseReportsLeakedReaders(t *testing.T) {
	db, err := Open(t.TempDir(), Config{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	db.HoldReader()
	if n := db.BorrowReaders(3); n != 3 {
		t.Fatalf("borrowed %d, want 3", n)
	}
	db.ReturnReader()
	db.ReturnReader()
	db.ReleaseReader()
	err = db.Close()
	if err == nil || !strings.Contains(err.Error(), "0 held and 1 borrowed") {
		t.Fatalf("Close with one borrowed Reader unreturned: %v", err)
	}

	db, err = Open(t.TempDir(), Config{CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	db.HoldReader()
	for range db.BorrowReaders(2) {
		db.ReturnReader()
	}
	db.ReleaseReader()
	if err := db.Close(); err != nil {
		t.Fatalf("Close with every Reader given back: %v", err)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.CreateNode(db.Label("user"), nil)
	db.Close()
	if err := tx.Commit(); !errors.Is(err, graph.ErrClosed) {
		t.Errorf("Commit after Close = %v", err)
	}
}

// TestNodePropRunMatchesNodeProp: a batched fetch returns what NodeProp
// returns for each node — ints, floats, short and multi-block strings,
// missing keys, chains of different lengths — over unsorted and
// repeated ids whose records span pages, and reads exactly as many
// records. A node not in use fails with ErrNotFound.
func TestNodePropRunMatchesNodeProp(t *testing.T) {
	db := openTemp(t)
	u := db.Label("u")
	tx := db.Begin()
	var ids []graph.NodeID
	for i := 0; i < 600; i++ { // node records span 3 pages, props more
		props := graph.Properties{"a": graph.IntValue(int64(i))}
		if i%3 == 0 {
			props["b"] = graph.FloatValue(float64(i) / 2)
		}
		if i%4 == 0 {
			props["s"] = graph.StringValue(fmt.Sprintf("%0*d", 1+i%150, i))
		}
		for k := 0; k < i%7; k++ {
			props[fmt.Sprintf("pad%d", k)] = graph.IntValue(int64(k))
		}
		ids = append(ids, tx.CreateNode(u, props))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	batch := append([]graph.NodeID{ids[599], ids[3], ids[3]}, ids...)
	batch = append(batch, ids[0], ids[300])
	for _, key := range []string{"a", "b", "s", "pad5", "nope"} {
		k := db.PropKey(key)
		want := make([]graph.Value, len(batch))
		before := db.RecordFetches()
		for i, id := range batch {
			v, err := db.NodeProp(id, k)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		single := db.RecordFetches() - before
		got := make([]graph.Value, len(batch))
		r := db.Reader()
		before = db.RecordFetches()
		err := r.NodePropRun(batch, k, got)
		run := db.RecordFetches() - before
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range batch {
			if !got[i].Equal(want[i]) || got[i].Kind() != want[i].Kind() {
				t.Fatalf("key %s, entry %d: %v, NodeProp says %v", key, i, got[i], want[i])
			}
			// NodeProps walks the whole chain on its own code path.
			all, err := db.NodeProps(id)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := all[key]; ok != !got[i].IsNil() || ok && !v.Equal(got[i]) {
				t.Fatalf("key %s, node %d: %v, NodeProps says %v", key, id, got[i], all)
			}
		}
		if run != single {
			t.Errorf("key %s: %d records read, NodeProp reads %d", key, run, single)
		}
	}

	tx = db.Begin()
	tx.DeleteNode(ids[10])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := db.Reader()
	defer r.Close()
	err := r.NodePropRun(ids[5:15], db.PropKey("a"), make([]graph.Value, 10))
	if !errors.Is(err, graph.ErrNotFound) {
		t.Errorf("run over a deleted node: err %v, want ErrNotFound", err)
	}
}

// TestOpenRefusesRetiredImportFrame: kinds 16–18 were bulk-import WAL
// frames that the import no longer writes. A WAL still holding one
// (left by a crashed import of an older build) must fail Open naming
// the kind, never be skipped.
func TestOpenRefusesRetiredImportFrame(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	seedSocial(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "neodb.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(16, []byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Config{CachePages: 64})
	if err == nil {
		db2.Close()
		t.Fatal("Open replayed a WAL holding a retired kind-16 frame")
	}
	if !strings.Contains(err.Error(), "unknown op kind 16") {
		t.Fatalf("Open error = %v, want it to name unknown op kind 16", err)
	}
	// The failed Open must leave the frame in place: a second Open
	// refuses it again rather than finding the log checkpointed away.
	db3, err := Open(dir, Config{CachePages: 64})
	if err == nil {
		db3.Close()
		t.Fatal("second Open succeeded: the failed recovery discarded the WAL")
	}
}
