package twitter_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// buildBoth generates a deterministic dataset and loads it into both
// engines. The two stores answer every Table 2 query over the same
// graph; any divergence is a bug in one engine.
func buildBoth(t testing.TB, cfg gen.Config) (*twitter.NeoStore, *twitter.SparkStore, gen.Summary) {
	t.Helper()
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	sum, err := gen.GenerateStream(cfg, csvDir)
	if err != nil {
		t.Fatal(err)
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { neoRes.Store.Close() })
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return neoRes.Store, sparkRes.Store, sum
}

func smallCfg() gen.Config {
	cfg := gen.Default()
	cfg.Users = 300
	cfg.AvgFollowees = 6
	cfg.Hashtags = 30
	cfg.MentionsPer = 0.8
	cfg.TagsPer = 0.6
	return cfg
}

func TestDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds two databases")
	}
	neo, spark, sum := buildBoth(t, smallCfg())
	if sum.Follows == 0 || sum.Mentions == 0 || sum.Tags == 0 {
		t.Fatalf("degenerate dataset: %+v", sum)
	}

	// 1_000_000 is no user's uid and "missing" no hashtag: both engines
	// must answer them with the same empty, non-nil result.
	probes := []int64{1, 2, 3, 5, 17, 42, 100, 250, 299, 1_000_000}

	t.Run("Q1.1-select", func(t *testing.T) {
		for _, th := range []int64{0, 1, 5, 20, 1000} {
			a, err := neo.UsersWithFollowersOver(th)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spark.UsersWithFollowersOver(th)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("threshold %d: neo %d rows, spark %d rows", th, len(a), len(b))
			}
		}
	})

	t.Run("Q2.1-followees", func(t *testing.T) {
		for _, uid := range probes {
			a, _ := neo.Followees(uid)
			b, _ := spark.Followees(uid)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %v, spark %v", uid, a, b)
			}
		}
	})

	t.Run("Q2.2-tweets-of-followees", func(t *testing.T) {
		for _, uid := range probes {
			a, _ := neo.TweetsOfFollowees(uid)
			b, _ := spark.TweetsOfFollowees(uid)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %d tweets, spark %d", uid, len(a), len(b))
			}
		}
	})

	t.Run("Q2.3-hashtags-of-followees", func(t *testing.T) {
		for _, uid := range probes {
			a, _ := neo.HashtagsOfFollowees(uid)
			b, _ := spark.HashtagsOfFollowees(uid)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %v, spark %v", uid, a, b)
			}
		}
	})

	t.Run("Q3.1-co-mentioned", func(t *testing.T) {
		for _, uid := range probes {
			a, err := neo.CoMentionedUsers(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spark.CoMentionedUsers(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %v, spark %v", uid, a, b)
			}
		}
	})

	t.Run("Q3.2-co-occurring-hashtags", func(t *testing.T) {
		for _, tag := range []string{"topic1", "topic2", "topic3", "topic10", "missing"} {
			a, err := neo.CoOccurringHashtags(tag, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spark.CoOccurringHashtags(tag, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("tag %s: neo %#v, spark %#v", tag, a, b)
			}
		}
	})

	t.Run("Q4.1-recommend-followees", func(t *testing.T) {
		for _, uid := range probes {
			a, err := neo.RecommendFollowees(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spark.RecommendFollowees(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %v, spark %v", uid, a, b)
			}
		}
	})

	t.Run("Q4.1-methods-agree", func(t *testing.T) {
		for _, uid := range probes[:4] {
			ref, err := neo.RecommendFolloweesMethod("b", uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"a", "c"} {
				got, err := neo.RecommendFolloweesMethod(m, uid, 10)
				if err != nil {
					t.Fatalf("method %s: %v", m, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("uid %d method %s: %v vs %v", uid, m, got, ref)
				}
			}
			// The traversal-framework rewrite agrees too.
			trav, err := neo.RecommendFolloweesTraversal(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, trav) {
				t.Fatalf("uid %d traversal: %v vs %v", uid, trav, ref)
			}
			// And Sparksee's traversal-class rewrite.
			strav, err := spark.RecommendFolloweesTraversal(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, strav) {
				t.Fatalf("uid %d spark traversal: %v vs %v", uid, strav, ref)
			}
		}
	})

	t.Run("Q4.2-recommend-followers-of-followees", func(t *testing.T) {
		for _, uid := range probes {
			a, _ := neo.RecommendFollowersOfFollowees(uid, 10)
			b, _ := spark.RecommendFollowersOfFollowees(uid, 10)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uid %d: neo %v, spark %v", uid, a, b)
			}
		}
	})

	t.Run("Q5-influence", func(t *testing.T) {
		for _, uid := range probes {
			a1, _ := neo.CurrentInfluence(uid, 10)
			b1, _ := spark.CurrentInfluence(uid, 10)
			if !reflect.DeepEqual(a1, b1) {
				t.Fatalf("Q5.1 uid %d: neo %v, spark %v", uid, a1, b1)
			}
			a2, _ := neo.PotentialInfluence(uid, 10)
			b2, _ := spark.PotentialInfluence(uid, 10)
			if !reflect.DeepEqual(a2, b2) {
				t.Fatalf("Q5.2 uid %d: neo %v, spark %v", uid, a2, b2)
			}
		}
	})

	t.Run("Q6.1-shortest-path", func(t *testing.T) {
		pairs := [][2]int64{{1, 2}, {1, 50}, {5, 250}, {17, 42}, {100, 299}, {3, 3}, {1, 1_000_000}}
		for _, p := range pairs {
			la, oka, err := neo.ShortestPathLength(p[0], p[1], 3)
			if err != nil {
				t.Fatal(err)
			}
			lb, okb, err := spark.ShortestPathLength(p[0], p[1], 3)
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb || (oka && la != lb) {
				t.Fatalf("pair %v: neo (%d,%v), spark (%d,%v)", p, la, oka, lb, okb)
			}
		}
	})
}

// countedEqual compares rankings, tolerating permutation within equal
// counts only via the normalised (count desc, id asc) order — i.e. it
// requires exact equality, which the shared tie-break guarantees.
func countedEqual(a, b []twitter.Counted) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUpdateWorkloadBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds two databases")
	}
	cfg := smallCfg()
	cfg.Users = 100
	neo, spark, _ := buildBoth(t, cfg)

	for _, s := range []twitter.UpdateStore{neo, spark} {
		if err := s.AddUser(9001, "newcomer"); err != nil {
			t.Fatalf("%s AddUser: %v", s.Name(), err)
		}
		if err := s.AddFollow(9001, 1); err != nil {
			t.Fatalf("%s AddFollow: %v", s.Name(), err)
		}
		if err := s.AddTweet(9001, 90010, "hello @user1 #topic1", []int64{1}, []string{"topic1"}); err != nil {
			t.Fatalf("%s AddTweet: %v", s.Name(), err)
		}
	}
	// Both engines see the same post-update state.
	a, _ := neo.Followees(9001)
	b, _ := spark.Followees(9001)
	if !reflect.DeepEqual(a, b) || len(a) != 1 || a[0] != 1 {
		t.Fatalf("followees after update: neo %v, spark %v", a, b)
	}
	// user1's mentioners now include 9001.
	am, _ := neo.CurrentInfluence(1, 100)
	bm, _ := spark.CurrentInfluence(1, 100)
	if !countedEqual(am, bm) {
		t.Fatalf("influence after update: neo %v, spark %v", am, bm)
	}
	found := false
	for _, c := range am {
		if c.ID == 9001 {
			found = true
		}
	}
	if !found {
		t.Error("new user not in current influence of user1")
	}
}

func TestStoreInterfacesComplete(t *testing.T) {
	var _ twitter.UpdateStore = (*twitter.NeoStore)(nil)
	var _ twitter.UpdateStore = (*twitter.SparkStore)(nil)
}
