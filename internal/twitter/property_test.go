package twitter_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// TestRandomGraphEquivalence builds many small random multigraphs
// through both engines' transactional write paths (not the bulk
// loaders) and checks the full workload agrees on each — a
// property-based differential test independent of the CSV pipeline.
func TestRandomGraphEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many database pairs")
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			neo, spark := emptyPair(t)
			const nUsers = 30
			stores := []twitter.UpdateStore{neo, spark}

			for u := int64(1); u <= nUsers; u++ {
				for _, s := range stores {
					if err := s.AddUser(u, "u"); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Random follows, allowing parallel edges (multigraph).
			for i := 0; i < 120; i++ {
				src := rng.Int63n(nUsers) + 1
				dst := rng.Int63n(nUsers) + 1
				if src == dst {
					continue
				}
				for _, s := range stores {
					if err := s.AddFollow(src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Random tweets with mentions and tags.
			tags := []string{"a", "b", "c", "d"}
			for tid := int64(1); tid <= 60; tid++ {
				author := rng.Int63n(nUsers) + 1
				var mentions []int64
				seen := map[int64]bool{}
				for m := rng.Intn(3); m > 0; m-- {
					target := rng.Int63n(nUsers) + 1
					if target != author && !seen[target] {
						seen[target] = true
						mentions = append(mentions, target)
					}
				}
				var tw []string
				seenT := map[string]bool{}
				for k := rng.Intn(3); k > 0; k-- {
					tag := tags[rng.Intn(len(tags))]
					if !seenT[tag] {
						seenT[tag] = true
						tw = append(tw, tag)
					}
				}
				for _, s := range stores {
					if err := s.AddTweet(author, tid, "t", mentions, tw); err != nil {
						t.Fatal(err)
					}
				}
			}

			// The full workload agrees.
			for u := int64(1); u <= nUsers; u += 3 {
				compareAll(t, neo, spark, u, nUsers, tags[u%int64(len(tags))])
			}
			for _, tag := range tags {
				a, err := neo.CoOccurringHashtags(tag, 10)
				if err != nil {
					t.Fatal(err)
				}
				b, err := spark.CoOccurringHashtags(tag, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("seed %d tag %s: %v vs %v", seed, tag, a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d tag %s: %v vs %v", seed, tag, a, b)
					}
				}
			}
		})
	}
}

// emptyPair opens both engines with the schema registered but no data.
func emptyPair(t *testing.T) (*twitter.NeoStore, *twitter.SparkStore) {
	t.Helper()
	db, err := neodb.Open(filepath.Join(t.TempDir(), "neo"), neodb.Config{CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	user := db.Label(twitter.LabelUser)
	tweet := db.Label(twitter.LabelTweet)
	hashtag := db.Label(twitter.LabelHashtag)
	for _, rel := range []string{twitter.RelFollows, twitter.RelPosts, twitter.RelMentions, twitter.RelTags} {
		db.RelType(rel)
	}
	for _, ix := range []struct {
		label graph.TypeID
		key   string
	}{
		{user, twitter.PropUID}, {tweet, twitter.PropTID},
		{hashtag, twitter.PropHID}, {hashtag, twitter.PropTag},
	} {
		if err := db.CreateIndex(ix.label, db.PropKey(ix.key)); err != nil {
			t.Fatal(err)
		}
	}
	neo := twitter.NewNeoStore(db)

	sdb := sparkdb.New(sparkdb.Config{})
	userT, err := sdb.NewNodeType(twitter.LabelUser)
	if err != nil {
		t.Fatal(err)
	}
	tweetT, err := sdb.NewNodeType(twitter.LabelTweet)
	if err != nil {
		t.Fatal(err)
	}
	hashT, err := sdb.NewNodeType(twitter.LabelHashtag)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{twitter.RelFollows, twitter.RelPosts, twitter.RelMentions, twitter.RelTags} {
		if _, err := sdb.NewEdgeType(rel, false); err != nil {
			t.Fatal(err)
		}
	}
	attrs := []struct {
		t       graph.TypeID
		name    string
		kind    graph.Kind
		indexed bool
	}{
		{userT, twitter.PropUID, graph.KindInt, true},
		{userT, twitter.PropScreenName, graph.KindString, false},
		{userT, twitter.PropFollowers, graph.KindInt, false},
		{tweetT, twitter.PropTID, graph.KindInt, true},
		{tweetT, twitter.PropText, graph.KindString, false},
		{hashT, twitter.PropHID, graph.KindInt, true},
		{hashT, twitter.PropTag, graph.KindString, true},
	}
	for _, a := range attrs {
		if _, err := sdb.NewAttribute(a.t, a.name, a.kind, a.indexed); err != nil {
			t.Fatal(err)
		}
	}
	spark, err := twitter.NewSparkStore(sdb)
	if err != nil {
		t.Fatal(err)
	}
	return neo, spark
}

// compareAll runs every Table 2 read for uid on both engines and
// requires identical rows: top-n budget 100, threshold uid mod 4 for
// Q1.1, tag for Q3.2, and Q6.1 to three targets.
func compareAll(t *testing.T, neo, spark twitter.Store, uid, nUsers int64, tag string) {
	t.Helper()
	p := twitter.Params{"uid": uid, "n": int64(100), "threshold": uid % 4, "tag": tag}
	for _, q := range twitter.Queries {
		if !q.Idempotent {
			continue
		}
		targets := []int64{0}
		if q.ID == "Q6.1" {
			targets = []int64{(uid+7)%nUsers + 1, (uid+14)%nUsers + 1, (uid+21)%nUsers + 1}
		}
		for _, target := range targets {
			p["uid2"] = target
			a, aerr := q.Run(neo, p)
			b, berr := q.Run(spark, p)
			if aerr != nil || berr != nil {
				t.Fatalf("%s %s(%d): %v / %v", q.ID, q.Wire, uid, aerr, berr)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %s(%d, uid2 %d): %v vs %v", q.ID, q.Wire, uid, target, a, b)
			}
		}
	}
}
