package twitter_test

import (
	"testing"

	"twigraph/internal/twitter"
)

func TestTopicExpertsOnBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	cfg := smallCfg()
	cfg.Retweets = true
	cfg.RetweetsPer = 0.6
	cfg.TagsPer = 1.0
	neo, spark, sum := buildBoth(t, cfg)
	if sum.Retweets == 0 {
		t.Fatal("generator produced no retweets")
	}

	for _, s := range []twitter.Store{neo, spark} {
		experts, err := twitter.TopicExperts(s, 1, "topic1", 10)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(experts) == 0 {
			t.Fatalf("%s: no experts found", s.Name())
		}
		// Known distances must be sorted ascending, unknown (-1) last.
		lastKnown := -1
		seenUnknown := false
		for _, e := range experts {
			if e.Distance == -1 {
				seenUnknown = true
				continue
			}
			if seenUnknown {
				t.Fatalf("%s: known distance after unknown: %+v", s.Name(), experts)
			}
			if e.Distance < lastKnown {
				t.Fatalf("%s: distances out of order: %+v", s.Name(), experts)
			}
			lastKnown = e.Distance
		}
	}

	// The two engines agree on the expert set.
	a, _ := twitter.TopicExperts(neo, 1, "topic1", 10)
	b, _ := twitter.TopicExperts(spark, 1, "topic1", 10)
	if len(a) != len(b) {
		t.Fatalf("expert counts differ: neo %d, spark %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("expert[%d]: neo %+v, spark %+v", i, a[i], b[i])
		}
	}
}

func TestTweetRankerPrimitives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	cfg := smallCfg()
	cfg.Retweets = true
	cfg.RetweetsPer = 0.5
	neo, spark, _ := buildBoth(t, cfg)
	for _, s := range []twitter.TweetRanker{neo, spark} {
		tweets, err := s.TopTweetsWithTag("topic1", 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(tweets); i++ {
			if tweets[i].Count > tweets[i-1].Count {
				t.Errorf("ranking out of order: %v", tweets)
			}
		}
		if len(tweets) > 0 {
			uid, ok, err := s.PosterOf(tweets[0].ID)
			if err != nil || !ok || uid == 0 {
				t.Errorf("PosterOf(%d) = %d,%v,%v", tweets[0].ID, uid, ok, err)
			}
		}
		// Missing tweet / tag.
		if _, ok, _ := s.PosterOf(99999999); ok {
			t.Error("ghost tweet has a poster")
		}
		if tw, err := s.TopTweetsWithTag("nope", 5); err != nil || len(tw) != 0 {
			t.Errorf("ghost tag tweets = %v, %v", tw, err)
		}
	}
	// Cross-engine agreement on ranking.
	a, _ := neo.TopTweetsWithTag("topic1", 10)
	b, _ := spark.TopTweetsWithTag("topic1", 10)
	if len(a) != len(b) {
		t.Fatalf("rank lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rank[%d]: neo %+v spark %+v", i, a[i], b[i])
		}
	}
}

func TestTopicExpertsRequiresRanker(t *testing.T) {
	if _, err := twitter.TopicExperts(&fakeStore{}, 1, "x", 5); err == nil {
		t.Error("non-ranker store accepted")
	}
}
