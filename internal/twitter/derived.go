package twitter

import (
	"fmt"
	"sort"

	"twigraph/internal/graph"
)

// This file implements the pieces of the paper's §3.3 "Deriving Other
// Queries" example — user A wants people to follow about a topic H:
//
//  1. hashtags co-occurring with H            (Q3.2)
//  2. most retweeted tweets carrying them     (needs retweets edges)
//  3. the posters of those tweets
//  4. ordered by follows-distance from A      (Q6.1)
//
// The crawl lacked retweets, which stopped the authors from running it;
// the generator can synthesise retweets (gen.Config.Retweets), so this
// repository executes the full composition on both engines.

// TopicExpert is one row of the derived query result.
type TopicExpert struct {
	UID      int64
	Retweets int64 // retweet count of their best tweet
	Distance int   // follows-hops from the asking user; -1 if beyond bound
}

// TweetRanker exposes the two tweet-level primitives the derived query
// needs beyond the Table 2 workload. Both stores implement it.
type TweetRanker interface {
	// TopTweetsWithTag returns tweets carrying the hashtag ranked by
	// incoming-retweet count (count desc, tid asc).
	TopTweetsWithTag(tag string, n int) ([]Counted, error)
	// PosterOf returns the uid of the tweet's author.
	PosterOf(tid int64) (int64, bool, error)
}

// TopicExperts runs the full derived query against any store that also
// implements TweetRanker.
func TopicExperts(s Store, uid int64, topic string, n int) ([]TopicExpert, error) {
	tr, ok := s.(TweetRanker)
	if !ok {
		return nil, fmt.Errorf("twitter: %s store cannot rank tweets", s.Name())
	}
	// Step 1: the topic plus its co-occurring hashtags.
	tagsToScan := []string{topic}
	co, err := s.CoOccurringHashtags(topic, n)
	if err != nil {
		return nil, err
	}
	for _, c := range co {
		tagsToScan = append(tagsToScan, c.Tag)
	}
	// Step 2: most retweeted tweets for each hashtag.
	type best struct {
		retweets int64
		tid      int64
	}
	perUser := map[int64]best{}
	for _, tag := range tagsToScan {
		tweets, err := tr.TopTweetsWithTag(tag, n)
		if err != nil {
			return nil, err
		}
		// Step 3: original posters.
		for _, tw := range tweets {
			poster, ok, err := tr.PosterOf(tw.ID)
			if err != nil {
				return nil, err
			}
			if !ok || poster == uid {
				continue
			}
			if b, exists := perUser[poster]; !exists || tw.Count > b.retweets {
				perUser[poster] = best{retweets: tw.Count, tid: tw.ID}
			}
		}
	}
	// Step 4: order by follows-distance from the asking user.
	out := make([]TopicExpert, 0, len(perUser))
	for poster, b := range perUser {
		dist, found, err := s.ShortestPathLength(uid, poster, 4)
		if err != nil {
			return nil, err
		}
		if !found {
			dist = -1
		}
		out = append(out, TopicExpert{UID: poster, Retweets: b.retweets, Distance: dist})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Distance, out[j].Distance
		// Known distances first, ascending; unknown (-1) last.
		switch {
		case di == -1 && dj != -1:
			return false
		case di != -1 && dj == -1:
			return true
		case di != dj:
			return di < dj
		case out[i].Retweets != out[j].Retweets:
			return out[i].Retweets > out[j].Retweets
		}
		return out[i].UID < out[j].UID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out, nil
}

// ---------- NeoStore primitives ----------

// TopTweetsWithTag implements TweetRanker on the declarative engine.
// It runs outside the store's beginQuery tracking (it is a building
// block of the composite, not a Table 2 query), so the engine itself
// attributes it under its Cypher fingerprint.
func (s *NeoStore) TopTweetsWithTag(tag string, n int) ([]Counted, error) {
	ctx, cancel := s.queryCtx()
	defer cancel()
	// OPTIONAL MATCH keeps tweets with zero retweets in the ranking.
	return s.queryCounted(ctx,
		`MATCH (h:hashtag {tag: $tag})<-[:tags]-(t:tweet)
		 OPTIONAL MATCH (t)<-[:retweets]-(r:tweet)
		 RETURN t.tid AS id, count(r) AS c ORDER BY c DESC, id LIMIT $n`,
		params("tag", tag, "n", n))
}

// PosterOf implements TweetRanker.
func (s *NeoStore) PosterOf(tid int64) (int64, bool, error) {
	ctx, cancel := s.queryCtx()
	defer cancel()
	res, err := s.query(ctx,
		`MATCH (u:user)-[:posts]->(t:tweet {tid: $tid}) RETURN u.uid`,
		params("tid", tid))
	if err != nil {
		return 0, false, err
	}
	if len(res.Rows) == 0 {
		return 0, false, nil
	}
	return res.Rows[0][0].(graph.Value).Int(), true, nil
}

// ---------- SparkStore primitives ----------

// TopTweetsWithTag implements TweetRanker on the navigation engine.
func (s *SparkStore) TopTweetsWithTag(tag string, n int) ([]Counted, error) {
	h, ok := s.db.FindObject(s.tagAttr, graph.StringValue(tag))
	if !ok {
		return []Counted{}, nil
	}
	out := []Counted{}
	s.db.Neighbors(h, s.tags, graph.Incoming).ForEach(func(t uint64) bool {
		var rts int64
		if s.retweets != graph.NilType {
			rts = int64(s.db.Degree(t, s.retweets, graph.Incoming))
		}
		out = append(out, Counted{ID: s.db.GetAttribute(t, s.tidAttr).Int(), Count: rts})
		return true
	})
	return firstN(out, n, byCountThenID), nil
}

// PosterOf implements TweetRanker.
func (s *SparkStore) PosterOf(tid int64) (int64, bool, error) {
	t, ok := s.db.FindObject(s.tidAttr, graph.IntValue(tid))
	if !ok {
		return 0, false, nil
	}
	poster, ok := s.db.Neighbors(t, s.posts, graph.Incoming).Any()
	if !ok {
		return 0, false, nil
	}
	return s.uidOf(poster), true, nil
}
