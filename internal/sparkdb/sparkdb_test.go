package sparkdb

import (
	"errors"
	"path/filepath"
	"testing"

	"twigraph/internal/graph"
)

// buildTiny creates a small social graph:
//
//	users u1..u5; follows: u1->u2, u1->u3, u2->u3, u3->u4, u4->u5
//	tweets t1(u2), t2(u3); posts edges accordingly
func buildTiny(t *testing.T) (*DB, map[string]uint64) {
	t.Helper()
	db := New(Config{})
	user, err := db.NewNodeType("user")
	if err != nil {
		t.Fatal(err)
	}
	tweet, err := db.NewNodeType("tweet")
	if err != nil {
		t.Fatal(err)
	}
	follows, err := db.NewEdgeType("follows", false)
	if err != nil {
		t.Fatal(err)
	}
	posts, err := db.NewEdgeType("posts", false)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.NewAttribute(user, "uid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := db.NewAttribute(tweet, "tid", graph.KindInt, true)
	if err != nil {
		t.Fatal(err)
	}

	objs := map[string]uint64{}
	for i := 1; i <= 5; i++ {
		oid, err := db.NewNode(user)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttribute(oid, uid, graph.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
		objs[key("u", i)] = oid
	}
	for i := 1; i <= 2; i++ {
		oid, err := db.NewNode(tweet)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetAttribute(oid, tid, graph.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
		objs[key("t", i)] = oid
	}
	for _, e := range [][2]string{{"u1", "u2"}, {"u1", "u3"}, {"u2", "u3"}, {"u3", "u4"}, {"u4", "u5"}} {
		if _, err := db.NewEdge(follows, objs[e[0]], objs[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"u2", "t1"}, {"u3", "t2"}} {
		if _, err := db.NewEdge(posts, objs[e[0]], objs[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return db, objs
}

func key(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestSchemaCatalog(t *testing.T) {
	db, _ := buildTiny(t)
	if db.FindType("user") == graph.NilType || db.FindType("follows") == graph.NilType {
		t.Error("FindType failed")
	}
	if db.FindType("nope") != graph.NilType {
		t.Error("FindType found ghost")
	}
	if db.TypeName(db.FindType("user")) != "user" {
		t.Error("TypeName wrong")
	}
	user := db.FindType("user")
	if db.FindAttribute(user, "uid") == graph.NilAttr {
		t.Error("FindAttribute failed")
	}
	if db.FindAttribute(user, "ghost") != graph.NilAttr {
		t.Error("FindAttribute found ghost")
	}
	// Duplicate registrations fail.
	if _, err := db.NewNodeType("user"); !errors.Is(err, graph.ErrTypeExists) {
		t.Errorf("dup type err = %v", err)
	}
	if _, err := db.NewAttribute(user, "uid", graph.KindInt, true); !errors.Is(err, graph.ErrAttrExists) {
		t.Errorf("dup attr err = %v", err)
	}
}

func TestOIDEncodesType(t *testing.T) {
	db, objs := buildTiny(t)
	if ObjectType(objs["u1"]) != db.FindType("user") {
		t.Error("user OID type wrong")
	}
	if ObjectType(objs["t1"]) != db.FindType("tweet") {
		t.Error("tweet OID type wrong")
	}
}

func TestCounts(t *testing.T) {
	db, _ := buildTiny(t)
	if n := db.CountObjects(db.FindType("user")); n != 5 {
		t.Errorf("users = %d", n)
	}
	if n := db.CountObjects(db.FindType("follows")); n != 5 {
		t.Errorf("follows = %d", n)
	}
	if n := db.CountObjects(graph.NilType); n != 14 {
		t.Errorf("total objects = %d", n)
	}
}

func TestAttributesAndFindObject(t *testing.T) {
	db, objs := buildTiny(t)
	user := db.FindType("user")
	uid := db.FindAttribute(user, "uid")
	oid, ok := db.FindObject(uid, graph.IntValue(3))
	if !ok || oid != objs["u3"] {
		t.Errorf("FindObject = %d,%v want %d", oid, ok, objs["u3"])
	}
	if _, ok := db.FindObject(uid, graph.IntValue(99)); ok {
		t.Error("FindObject found missing uid")
	}
	if got := db.GetAttribute(objs["u3"], uid); got.Int() != 3 {
		t.Errorf("GetAttribute = %v", got)
	}
	// Kind mismatch rejected, leaving the value and its index entry.
	if err := db.SetAttribute(objs["u3"], uid, graph.StringValue("x")); !errors.Is(err, graph.ErrKindMismatch) {
		t.Errorf("kind mismatch err = %v", err)
	}
	if oid, ok := db.FindObject(uid, graph.IntValue(3)); !ok || oid != objs["u3"] {
		t.Errorf("after a rejected write FindObject = %d,%v want %d", oid, ok, objs["u3"])
	}
	if r := db.CheckIntegrity(); !r.OK() {
		t.Errorf("a rejected write broke integrity:\n%s", r)
	}
	// Re-setting updates the index.
	if err := db.SetAttribute(objs["u3"], uid, graph.IntValue(33)); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.FindObject(uid, graph.IntValue(3)); ok {
		t.Error("stale index entry after update")
	}
	if oid, ok := db.FindObject(uid, graph.IntValue(33)); !ok || oid != objs["u3"] {
		t.Error("index not updated")
	}
	// Clearing with NilValue removes value and index entry.
	if err := db.SetAttribute(objs["u3"], uid, graph.NilValue); err != nil {
		t.Fatal(err)
	}
	if !db.GetAttribute(objs["u3"], uid).IsNil() {
		t.Error("value not cleared")
	}
	// Attribute of wrong type rejected.
	tweet := db.FindType("tweet")
	tid := db.FindAttribute(tweet, "tid")
	if err := db.SetAttribute(objs["u1"], tid, graph.IntValue(1)); err == nil {
		t.Error("cross-type attribute accepted")
	}
}

func TestNeighborsDirections(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	out := db.Neighbors(objs["u1"], follows, graph.Outgoing)
	if out.Count() != 2 || !out.Contains(objs["u2"]) || !out.Contains(objs["u3"]) {
		t.Errorf("u1 out = %v", out.Slice())
	}
	in := db.Neighbors(objs["u3"], follows, graph.Incoming)
	if in.Count() != 2 || !in.Contains(objs["u1"]) || !in.Contains(objs["u2"]) {
		t.Errorf("u3 in = %v", in.Slice())
	}
	any := db.Neighbors(objs["u3"], follows, graph.Any)
	if any.Count() != 3 {
		t.Errorf("u3 any count = %d", any.Count())
	}
	// Unknown edge type yields empty set.
	if !db.Neighbors(objs["u1"], 999, graph.Any).IsEmpty() {
		t.Error("ghost edge type returned neighbors")
	}
}

func TestExplodeAndEndpoints(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	edges := db.Explode(objs["u1"], follows, graph.Outgoing)
	if edges.Count() != 2 {
		t.Fatalf("explode count = %d", edges.Count())
	}
	heads := map[uint64]bool{}
	edges.ForEach(func(e uint64) bool {
		tail, head, err := db.EdgeEndpoints(e)
		if err != nil {
			t.Fatal(err)
		}
		if tail != objs["u1"] {
			t.Errorf("tail = %d", tail)
		}
		heads[head] = true
		return true
	})
	if !heads[objs["u2"]] || !heads[objs["u3"]] {
		t.Errorf("heads = %v", heads)
	}
	if _, _, err := db.EdgeEndpoints(objs["u1"]); err == nil {
		t.Error("EdgeEndpoints on a node succeeded")
	}
}

func TestDegree(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	if d := db.Degree(objs["u1"], follows, graph.Outgoing); d != 2 {
		t.Errorf("u1 out-degree = %d", d)
	}
	if d := db.Degree(objs["u1"], follows, graph.Incoming); d != 0 {
		t.Errorf("u1 in-degree = %d", d)
	}
	if d := db.Degree(objs["u3"], follows, graph.Any); d != 3 {
		t.Errorf("u3 any-degree = %d", d)
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	// A second u1->u2 edge must coexist (directed multigraph).
	if _, err := db.NewEdge(follows, objs["u1"], objs["u2"]); err != nil {
		t.Fatal(err)
	}
	if d := db.Degree(objs["u1"], follows, graph.Outgoing); d != 3 {
		t.Errorf("degree after parallel edge = %d", d)
	}
	// Neighbors still deduplicates nodes.
	if n := db.Neighbors(objs["u1"], follows, graph.Outgoing).Count(); n != 2 {
		t.Errorf("neighbors after parallel edge = %d", n)
	}
}

func TestSelectOps(t *testing.T) {
	db, _ := buildTiny(t)
	user := db.FindType("user")
	uid := db.FindAttribute(user, "uid")
	if got := db.Select(uid, Eq, graph.IntValue(2)).Count(); got != 1 {
		t.Errorf("Eq count = %d", got)
	}
	if got := db.Select(uid, Greater, graph.IntValue(3)).Count(); got != 2 {
		t.Errorf("Greater count = %d", got)
	}
	if got := db.Select(uid, GreaterEq, graph.IntValue(3)).Count(); got != 3 {
		t.Errorf("GreaterEq count = %d", got)
	}
	if got := db.Select(uid, Less, graph.IntValue(3)).Count(); got != 2 {
		t.Errorf("Less count = %d", got)
	}
	if got := db.Select(uid, LessEq, graph.IntValue(3)).Count(); got != 3 {
		t.Errorf("LessEq count = %d", got)
	}
	if got := db.Select(uid, NotEq, graph.IntValue(3)).Count(); got != 4 {
		t.Errorf("NotEq count = %d", got)
	}
	// Conjunction via set algebra (the paper's client-side combination).
	conj := db.Select(uid, Greater, graph.IntValue(1)).Intersection(db.Select(uid, Less, graph.IntValue(4)))
	if conj.Count() != 2 {
		t.Errorf("conjunction count = %d", conj.Count())
	}
}

func TestObjectsSetAlgebra(t *testing.T) {
	a := ObjectsOf(1, 2, 3)
	b := ObjectsOf(3, 4)
	if u := a.Union(b); u.Count() != 4 {
		t.Errorf("union = %v", u.Slice())
	}
	if i := a.Intersection(b); i.Count() != 1 || !i.Contains(3) {
		t.Errorf("intersection = %v", i.Slice())
	}
	if d := a.Difference(b); d.Count() != 2 || d.Contains(3) {
		t.Errorf("difference = %v", d.Slice())
	}
	c := a.Copy()
	c.Add(9)
	if a.Contains(9) {
		t.Error("Copy aliases")
	}
	c.Remove(9)
	if !c.Equal(a) {
		t.Error("Equal after copy+remove")
	}
	c.UnionWith(b)
	c.IntersectWith(ObjectsOf(1, 3))
	c.DifferenceWith(ObjectsOf(1))
	if c.Count() != 1 || !c.Contains(3) {
		t.Errorf("in-place ops = %v", c.Slice())
	}
	if v, ok := c.Any(); !ok || v != 3 {
		t.Errorf("Any = %d,%v", v, ok)
	}
}

func TestShortestPathBFS(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	types := []graph.TypeID{follows}
	// Shortest u1->u5 is u1->u3->u4->u5: 3 hops, 4 nodes.
	path, ok := db.SinglePairShortestPathBFS(objs["u1"], objs["u5"], types, graph.Outgoing, 10)
	if !ok || len(path) != 4 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
	if path[0] != objs["u1"] || path[3] != objs["u5"] {
		t.Errorf("endpoints wrong: %v", path)
	}
	// Max hops binds (paper limits Q6.1 to 3 hops).
	if _, ok := db.SinglePairShortestPathBFS(objs["u1"], objs["u5"], types, graph.Outgoing, 2); ok {
		t.Error("3-hop path found within 2-hop bound")
	}
	if p, ok := db.SinglePairShortestPathBFS(objs["u1"], objs["u4"], types, graph.Outgoing, 3); !ok || len(p) != 3 {
		t.Errorf("u1->u4 = %v,%v", p, ok)
	}
	// Same node.
	if p, ok := db.SinglePairShortestPathBFS(objs["u1"], objs["u1"], types, graph.Outgoing, 3); !ok || len(p) != 1 {
		t.Errorf("self path = %v,%v", p, ok)
	}
	// Direction matters.
	if _, ok := db.SinglePairShortestPathBFS(objs["u5"], objs["u1"], types, graph.Outgoing, 10); ok {
		t.Error("found path against edge direction")
	}
	if _, ok := db.SinglePairShortestPathBFS(objs["u5"], objs["u1"], types, graph.Incoming, 10); !ok {
		t.Error("no path with incoming direction")
	}
}

func TestTraversalBFSAndDFS(t *testing.T) {
	db, objs := buildTiny(t)
	follows := db.FindType("follows")
	tr := db.NewTraversal(objs["u1"]).AddEdgeType(follows, graph.Outgoing).SetMaximumHops(2)
	visited := tr.Run()
	// u2,u3 at depth 1; u4 at depth 2 (via u3).
	if len(visited) != 3 {
		t.Fatalf("visited = %v", visited)
	}
	depths := map[uint64]int{}
	for _, v := range visited {
		depths[v.OID] = v.Depth
	}
	if depths[objs["u2"]] != 1 || depths[objs["u3"]] != 1 || depths[objs["u4"]] != 2 {
		t.Errorf("depths = %v", depths)
	}
	// DFS visits the same node set.
	dfs := db.NewTraversal(objs["u1"]).AddEdgeType(follows, graph.Outgoing).SetMaximumHops(2).DepthFirst()
	if got := dfs.Run(); len(got) != 3 {
		t.Errorf("DFS visited %d", len(got))
	}
	if s := dfs.String(); s == "" {
		t.Error("empty String()")
	}
	// No steps means no visits.
	if got := db.NewTraversal(objs["u1"]).Run(); got != nil {
		t.Errorf("traversal without steps visited %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	db, objs := buildTiny(t)
	db.ResetStats()
	follows := db.FindType("follows")
	user := db.FindType("user")
	uid := db.FindAttribute(user, "uid")
	db.Neighbors(objs["u1"], follows, graph.Outgoing)
	db.Explode(objs["u1"], follows, graph.Outgoing)
	db.Select(uid, Eq, graph.IntValue(1))
	db.FindObject(uid, graph.IntValue(1))
	s := db.Stats()
	if s.Neighbors != 1 || s.Explodes != 1 || s.Selects != 1 || s.Finds != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestObjectCap(t *testing.T) {
	db := New(Config{MaxObjects: 3})
	user, _ := db.NewNodeType("user")
	for i := 0; i < 3; i++ {
		if _, err := db.NewNode(user); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NewNode(user); err == nil {
		t.Error("object cap not enforced")
	}
}

func TestMaterializedNeighbors(t *testing.T) {
	db := New(Config{})
	user, _ := db.NewNodeType("user")
	follows, _ := db.NewEdgeType("follows", true)
	var oids []uint64
	for i := 0; i < 4; i++ {
		oid, _ := db.NewNode(user)
		oids = append(oids, oid)
	}
	db.NewEdge(follows, oids[0], oids[1])
	db.NewEdge(follows, oids[0], oids[2])
	db.NewEdge(follows, oids[3], oids[0])
	out := db.Neighbors(oids[0], follows, graph.Outgoing)
	if out.Count() != 2 {
		t.Errorf("materialized out = %v", out.Slice())
	}
	in := db.Neighbors(oids[0], follows, graph.Incoming)
	if in.Count() != 1 || !in.Contains(oids[3]) {
		t.Errorf("materialized in = %v", in.Slice())
	}
	if any := db.Neighbors(oids[0], follows, graph.Any); any.Count() != 3 {
		t.Errorf("materialized any = %v", any.Slice())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, objs := buildTiny(t)
	path := filepath.Join(t.TempDir(), "db.img")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Schema survives.
	user := db2.FindType("user")
	follows := db2.FindType("follows")
	if user == graph.NilType || follows == graph.NilType {
		t.Fatal("types lost")
	}
	if db2.CountObjects(user) != 5 || db2.CountObjects(follows) != 5 {
		t.Errorf("counts = %d users, %d follows", db2.CountObjects(user), db2.CountObjects(follows))
	}
	// Attribute index rebuilt.
	uid := db2.FindAttribute(user, "uid")
	oid, ok := db2.FindObject(uid, graph.IntValue(3))
	if !ok || oid != objs["u3"] {
		t.Errorf("FindObject after load = %d,%v", oid, ok)
	}
	// Adjacency rebuilt.
	out := db2.Neighbors(objs["u1"], follows, graph.Outgoing)
	if out.Count() != 2 {
		t.Errorf("neighbors after load = %v", out.Slice())
	}
	// New objects can still be created (incremental loading — the
	// future-work feature the paper says both systems lacked).
	oid6, err := db2.NewNode(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.SetAttribute(oid6, uid, graph.IntValue(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.NewEdge(follows, oid6, objs["u1"]); err != nil {
		t.Fatal(err)
	}
	if db2.Degree(objs["u1"], follows, graph.Incoming) != 1 {
		t.Error("incremental edge not visible")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.img")); err == nil {
		t.Error("Load of missing file succeeded")
	}
}
