package crashtest

import (
	"fmt"
	"reflect"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/twitter"
	"twigraph/internal/vfs"
)

// TestNamesSurviveCrash declares the microblogging schema (labels,
// relationship types, property keys, indexes) with no checkpoint,
// commits three users and two follows with SyncCommits, then a new
// key and a fourth user, crashes and reopens: the names and indexes the
// replayed WAL refers to must be in catalog.json, so the follows read
// back, counted once, and the store is sound.
func TestNamesSurviveCrash(t *testing.T) {
	fs := vfs.NewFaultFS()
	cfg := neodb.Config{CachePages: 64, SyncCommits: true, FS: fs}
	db, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{twitter.RelFollows, twitter.RelPosts, twitter.RelMentions, twitter.RelTags} {
		db.RelType(rel)
	}
	for _, key := range []string{twitter.PropScreenName, twitter.PropFollowers, twitter.PropText} {
		db.PropKey(key)
	}
	for _, ix := range [][2]string{{twitter.LabelUser, twitter.PropUID}, {twitter.LabelTweet, twitter.PropTID},
		{twitter.LabelHashtag, twitter.PropHID}, {twitter.LabelHashtag, twitter.PropTag}} {
		if err := db.CreateIndex(db.Label(ix[0]), db.PropKey(ix[1])); err != nil {
			t.Fatal(err)
		}
	}
	s := twitter.NewNeoStore(db)
	for uid := int64(1); uid <= 3; uid++ {
		if err := s.AddUser(uid, fmt.Sprint("u", uid)); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range []int64{2, 3} {
		if err := s.AddFollow(1, dst); err != nil {
			t.Fatal(err)
		}
	}
	// A name created after the follows: the catalog is written again,
	// and must not record counts that replay will add to.
	db.PropKey("bio")
	if err := s.AddUser(4, "u4"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	db2, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := twitter.NewNeoStore(db2).Followees(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Followees(1) after the crash = %v, want %v", got, want)
	}
	if n := db2.RelTypeCount(db2.RelTypeID(twitter.RelFollows)); n != 2 {
		t.Errorf("%d follows counted after the crash, want 2", n)
	}
	if db2.PropKeyID("bio") == 0 {
		t.Error("property key bio lost in the crash")
	}
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Errorf("integrity after the crash:\n%s", r)
	}
}

// TestIndexDeclaredAfterCheckpointSurvivesCrash declares an index on a
// label that already has nodes after the last checkpoint, commits one
// more node and crashes: the reopened store still has the index, filled
// from the label scan for the nodes WAL replay does not re-create.
func TestIndexDeclaredAfterCheckpointSurvivesCrash(t *testing.T) {
	fs := vfs.NewFaultFS()
	cfg := neodb.Config{CachePages: 64, SyncCommits: true, FS: fs}
	db, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	user := db.Label(twitter.LabelUser)
	if err := db.CreateIndex(user, db.PropKey(twitter.PropUID)); err != nil {
		t.Fatal(err)
	}
	s := twitter.NewNeoStore(db)
	for uid := int64(1); uid <= 3; uid++ {
		if err := s.AddUser(uid, fmt.Sprint("u", uid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	name := db.PropKey(twitter.PropScreenName)
	if err := db.CreateIndex(user, name); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUser(4, "u4"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	db2, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for uid := 1; uid <= 4; uid++ {
		if _, ok := db2.FindNode(user, name, graph.StringValue(fmt.Sprint("u", uid))); !ok {
			t.Errorf("screen_name u%d not found through the index after the crash", uid)
		}
	}
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Errorf("integrity after the crash:\n%s", r)
	}
}
