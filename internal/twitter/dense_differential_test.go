package twitter_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
)

// TestDenseNodesDifferential forces every node in the record-store
// engine onto dense relationship groups (threshold 2) and replays the
// workload differential against the bitmap engine: the physical layout
// change must be invisible to every query.
func TestDenseNodesDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds two databases")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	cfg := smallCfg()
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		t.Fatal(err)
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"),
		neodb.Config{CachePages: 1024, DenseThreshold: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer neoRes.Store.Close()
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	neo, spark := neoRes.Store, sparkRes.Store

	for _, uid := range []int64{1, 2, 7, 42, 150, 299} {
		a, err := neo.Followees(uid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spark.Followees(uid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("dense followees(%d): %v vs %v", uid, a, b)
		}
		at, _ := neo.TweetsOfFollowees(uid)
		bt, _ := spark.TweetsOfFollowees(uid)
		if !reflect.DeepEqual(at, bt) {
			t.Fatalf("dense tweets-of-followees(%d) diverged", uid)
		}
		ar, err := neo.RecommendFollowees(uid, 20)
		if err != nil {
			t.Fatal(err)
		}
		br, err := spark.RecommendFollowees(uid, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !countedEqual(ar, br) {
			t.Fatalf("dense recommendations(%d): %v vs %v", uid, ar, br)
		}
		ai, _ := neo.PotentialInfluence(uid, 20)
		bi, _ := spark.PotentialInfluence(uid, 20)
		if !countedEqual(ai, bi) {
			t.Fatalf("dense influence(%d): %v vs %v", uid, ai, bi)
		}
		la, oka, _ := neo.ShortestPathLength(uid, uid%250+17, 3)
		lb, okb, _ := spark.ShortestPathLength(uid, uid%250+17, 3)
		if oka != okb || (oka && la != lb) {
			t.Fatalf("dense shortest-path(%d): (%d,%v) vs (%d,%v)", uid, la, oka, lb, okb)
		}
	}

	// Updates keep working on dense nodes.
	if err := neo.AddUser(9001, "dense-new"); err != nil {
		t.Fatal(err)
	}
	if err := neo.AddFollow(9001, 1); err != nil {
		t.Fatal(err)
	}
	if err := spark.AddUser(9001, "dense-new"); err != nil {
		t.Fatal(err)
	}
	if err := spark.AddFollow(9001, 1); err != nil {
		t.Fatal(err)
	}
	a, _ := neo.Followees(9001)
	b, _ := spark.Followees(9001)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("post-update followees diverged: %v vs %v", a, b)
	}
}
