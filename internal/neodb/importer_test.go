package neodb

import (
	"os"
	"path/filepath"
	"testing"

	"twigraph/internal/graph"
)

// writeTinyCSVDir writes the conventional generator layout with a small
// hand-made dataset.
func writeTinyCSVDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"users.csv":    "uid,screen_name,followers\n1,alice,2\n2,bob,1\n3,carol,1\n",
		"tweets.csv":   "tid,text\n10,hello #go\n11,hi @alice\n",
		"hashtags.csv": "hid,tag\n100,go\n",
		"follows.csv":  "src,dst\n1,2\n2,3\n3,1\n1,3\n",
		"posts.csv":    "uid,tid\n2,10\n3,11\n",
		"mentions.csv": "tid,uid\n11,1\n",
		"tags.csv":     "tid,hid\n10,100\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestImporterFullPipeline(t *testing.T) {
	csvDir := writeTinyCSVDir(t)
	db := openTemp(t)
	var points []ProgressPoint
	imp := db.NewImporter(1, func(p ProgressPoint) { points = append(points, p) })
	nodes, edges := ImportDirLayout(csvDir)
	rep, err := imp.Run(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 6 || rep.Edges != 8 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Total <= 0 || rep.NodePhase <= 0 || rep.EdgePhase <= 0 {
		t.Errorf("phases not timed: %+v", rep)
	}
	if rep.IDMapBytes <= 0 {
		t.Errorf("IDMapBytes not accounted: %+v", rep)
	}

	// Progress covers all phases.
	phases := map[string]bool{}
	for _, p := range points {
		phases[p.Phase] = true
	}
	for _, want := range []string{"nodes", "dense", "edges", "indexes"} {
		if !phases[want] {
			t.Errorf("missing progress phase %q", want)
		}
	}

	// Index seeks work after import.
	user := db.LabelID("user")
	uid := db.PropKeyID("uid")
	alice, ok := db.FindNode(user, uid, graph.IntValue(1))
	if !ok {
		t.Fatal("alice not indexed")
	}
	// Degrees from the chain inserts.
	if d, _ := db.Degree(alice, graph.Outgoing); d != 2+0 { // 2 follows
		t.Errorf("alice out-degree = %d", d)
	}
	// alice: 1 follows in (3->1) + 1 mention in (tweet 11 mentions 1).
	if d, _ := db.Degree(alice, graph.Incoming); d != 2 {
		t.Errorf("alice in-degree = %d", d)
	}
	follows := db.RelTypeID("follows")
	nbrs, err := db.Neighbors(alice, follows, graph.Outgoing)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs.Cardinality() != 2 {
		t.Errorf("alice followees = %v", nbrs.Slice())
	}
	// Tweet text survived.
	tweet := db.LabelID("tweet")
	tid := db.PropKeyID("tid")
	tw, ok := db.FindNode(tweet, tid, graph.IntValue(10))
	if !ok {
		t.Fatal("tweet missing")
	}
	text, err := db.NodeProp(tw, db.PropKeyID("text"))
	if err != nil || text.Str() != "hello #go" {
		t.Errorf("text = %v err %v", text, err)
	}
	// Stats populated.
	if db.RelTypeCount(follows) != 4 {
		t.Errorf("follows count = %d", db.RelTypeCount(follows))
	}
}

func TestImporterThenTransactionalUpdates(t *testing.T) {
	// The paper's future work: update workloads on an imported
	// database ("at the time of writing, both systems could not import
	// additional data into an existing database").
	csvDir := writeTinyCSVDir(t)
	db := openTemp(t)
	imp := db.NewImporter(0, nil)
	nodes, edges := ImportDirLayout(csvDir)
	if _, err := imp.Run(nodes, edges); err != nil {
		t.Fatal(err)
	}
	user := db.LabelID("user")
	uid := db.PropKeyID("uid")
	follows := db.RelTypeID("follows")
	alice, _ := db.FindNode(user, uid, graph.IntValue(1))

	tx := db.Begin()
	dave := tx.CreateNode(user, graph.Properties{
		"uid":         graph.IntValue(4),
		"screen_name": graph.StringValue("dave"),
	})
	tx.CreateRel(follows, dave, alice)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, ok := db.FindNode(user, uid, graph.IntValue(4))
	if !ok || got != dave {
		t.Error("incremental node not indexed")
	}
	nbrs, _ := db.Neighbors(alice, follows, graph.Incoming)
	if !nbrs.Contains(uint64(dave)) {
		t.Error("incremental edge not in chain")
	}
}

func TestImporterErrors(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "users.csv"), []byte("uid,screen_name,followers\n1,alice,0\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "bad_edges.csv"), []byte("src,dst\n1,99\n"), 0o644)

	db := openTemp(t)
	imp := db.NewImporter(0, nil)
	// Unknown target id.
	_, err := imp.Run(
		[]NodeSpec{{Label: "user", File: filepath.Join(dir, "users.csv"), IDColumn: "uid",
			Columns: []ColumnSpec{{"uid", graph.KindInt}, {"screen_name", graph.KindString}, {"followers", graph.KindInt}}}},
		[]EdgeSpec{{Type: "follows", File: filepath.Join(dir, "bad_edges.csv"), SrcLabel: "user", DstLabel: "user"}},
	)
	if err == nil {
		t.Error("unknown edge endpoint accepted")
	}

	db2 := openTemp(t)
	imp2 := db2.NewImporter(0, nil)
	// Missing file.
	if _, err := imp2.Run([]NodeSpec{{Label: "user", File: filepath.Join(dir, "none.csv"), IDColumn: "uid",
		Columns: []ColumnSpec{{"uid", graph.KindInt}}}}, nil); err == nil {
		t.Error("missing file accepted")
	}
	// Bad id column.
	if _, err := imp2.Run([]NodeSpec{{Label: "x", File: filepath.Join(dir, "users.csv"), IDColumn: "ghost",
		Columns: []ColumnSpec{{"uid", graph.KindInt}}}}, nil); err == nil {
		t.Error("missing id column accepted")
	}
	// Edge referencing unimported label.
	if _, err := imp2.Run(nil, []EdgeSpec{{Type: "follows", File: filepath.Join(dir, "bad_edges.csv"), SrcLabel: "nope", DstLabel: "nope"}}); err == nil {
		t.Error("unimported label accepted")
	}
}

func TestImportDirLayoutWithRetweets(t *testing.T) {
	dir := writeTinyCSVDir(t)
	nodes, edges := ImportDirLayout(dir)
	if len(nodes) != 3 || len(edges) != 4 {
		t.Errorf("layout = %d nodes, %d edges", len(nodes), len(edges))
	}
	os.WriteFile(filepath.Join(dir, "retweets.csv"), []byte("src,dst\n11,10\n"), 0o644)
	_, edges = ImportDirLayout(dir)
	if len(edges) != 5 {
		t.Errorf("retweets not picked up: %d edge specs", len(edges))
	}
}

func TestImporterInterleavedLayout(t *testing.T) {
	csvDir := writeTinyCSVDir(t)
	db := openTemp(t)
	imp := db.NewImporter(0, nil)
	imp.SetInterleaved(true)
	nodes, edges := ImportDirLayout(csvDir)
	rep, err := imp.Run(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != 8 {
		t.Errorf("interleaved import edges = %d", rep.Edges)
	}
	// Semantics identical to the contiguous layout: same degrees, same
	// neighbors, same stats — only record placement differs.
	user := db.LabelID("user")
	uid := db.PropKeyID("uid")
	follows := db.RelTypeID("follows")
	alice, ok := db.FindNode(user, uid, graph.IntValue(1))
	if !ok {
		t.Fatal("alice missing")
	}
	nbrs, err := db.Neighbors(alice, follows, graph.Outgoing)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs.Cardinality() != 2 {
		t.Errorf("alice followees = %v", nbrs.Slice())
	}
	if db.RelTypeCount(follows) != 4 {
		t.Errorf("follows stats = %d", db.RelTypeCount(follows))
	}
	// Interleaved import with a bad edge errors cleanly.
	db2 := openTemp(t)
	imp2 := db2.NewImporter(0, nil)
	imp2.SetInterleaved(true)
	if _, err := imp2.Run(nodes, []EdgeSpec{{Type: "x", File: edges[0].File, SrcLabel: "ghost", DstLabel: "ghost"}}); err == nil {
		t.Error("unimported label accepted in interleaved mode")
	}
}
