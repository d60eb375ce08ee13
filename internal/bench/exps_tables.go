package bench

import (
	"fmt"
	"io"
	"reflect"

	"twigraph/internal/twitter"
)

// paperTable1 holds the counts the paper reports so the scaled run can
// be compared ratio-by-ratio.
var paperTable1 = struct {
	users, tweets, hashtags        int64
	follows, posts, mentions, tags int64
	totalNodes, totalRels          int64
}{
	users: 24_789_792, tweets: 24_000_023, hashtags: 616_109,
	follows: 284_000_284, posts: 24_000_023, mentions: 11_100_547, tags: 7_137_992,
	totalNodes: 49_405_924, totalRels: 326_238_846,
}

func runTable1(e *Env, w io.Writer) error {
	_, sum, err := e.Dataset()
	if err != nil {
		return err
	}
	t := newTable(w, "Node", "Count", "Paper", "  ", "Relationship", "Count ", "Paper ")
	t.rowf("user", sum.Users, paperTable1.users, "", "follows", sum.Follows, paperTable1.follows)
	t.rowf("tweet", sum.Tweets, paperTable1.tweets, "", "posts", sum.Posts, paperTable1.posts)
	t.rowf("hashtag", sum.Hashtags, paperTable1.hashtags, "", "mentions", sum.Mentions, paperTable1.mentions)
	t.rowf("", "", "", "", "tags", sum.Tags, paperTable1.tags)
	if sum.Retweets > 0 {
		t.rowf("", "", "", "", "retweets", sum.Retweets, "(absent)")
	}
	t.rowf("Total", sum.TotalNodes(), paperTable1.totalNodes, "", "Total", sum.TotalEdges(), paperTable1.totalRels)

	t.flush()
	fmt.Fprintf(w, "\nShape checks (paper ratio vs this run):\n")
	ratio := func(name string, paper, got float64) {
		fmt.Fprintf(w, "  %-22s paper %8.3f   this run %8.3f\n", name, paper, got)
	}
	ratio("follows per user", float64(paperTable1.follows)/float64(paperTable1.users),
		float64(sum.Follows)/float64(sum.Users))
	ratio("mentions per tweet", float64(paperTable1.mentions)/float64(paperTable1.tweets),
		float64(sum.Mentions)/float64(sum.Tweets))
	ratio("tags per tweet", float64(paperTable1.tags)/float64(paperTable1.tweets),
		float64(sum.Tags)/float64(sum.Tweets))
	return nil
}

func runTable2(e *Env, w io.Writer) error {
	neo, spark, err := e.Stores()
	if err != nil {
		return err
	}
	deg, err := e.MentionDegree()
	if err != nil {
		return err
	}
	// A deterministic probe user: the most-mentioned account (lowest
	// uid on ties), so the influence rows are non-trivial.
	probe := int64(1)
	for uid := int64(1); uid <= int64(e.Cfg.Users); uid++ {
		if deg[uid] > deg[probe] {
			probe = uid
		}
	}
	// Pick a shortest-path target two hops out so Q6.1 is non-trivial.
	uid2 := probe%int64(e.Cfg.Users) + 7
	if f1, err := neo.Followees(probe); err == nil && len(f1) > 0 {
		if f2, err := neo.Followees(f1[len(f1)-1]); err == nil {
			for _, cand := range f2 {
				if cand != probe {
					uid2 = cand
					break
				}
			}
		}
	}
	p := twitter.Params{"uid": probe, "uid2": uid2, "tag": "topic1", "threshold": int64(10)}

	t := newTable(w, "Query", "Category", "Starred", "neo rows", "sparksee rows", "agree")
	for _, q := range twitter.Queries {
		if !q.Idempotent {
			continue
		}
		nRows, err := q.Run(neo, p)
		if err != nil {
			return fmt.Errorf("%s on neo: %w", q.ID, err)
		}
		sRows, err := q.Run(spark, p)
		if err != nil {
			return fmt.Errorf("%s on sparksee: %w", q.ID, err)
		}
		star := ""
		if q.Starred {
			star = "*"
		}
		agree := "yes"
		if !reflect.DeepEqual(nRows, sRows) {
			agree = "NO"
		}
		t.rowf(q.ID, q.Category, star, len(nRows), len(sRows), agree)
	}
	t.flush()
	fmt.Fprintf(w, "\nProbe user: uid=%d (mentioned %d times); hashtag %q; threshold %d.\n",
		probe, deg[probe], p["tag"], p["threshold"])
	return nil
}
