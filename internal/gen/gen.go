// Package gen generates a deterministic synthetic Twittersphere in the
// shared CSV layout both engines' bulk loaders consume.
//
// It substitutes for the proprietary crawl of Li et al. (KDD'12) the
// paper uses — 24.8 M users, 284 M follows, 24 M tweets, 49.4 M nodes /
// 326 M edges in total. What the paper's experiments actually depend on
// is preserved:
//
//   - a heavy-tailed follower graph (preferential attachment), so some
//     users have orders of magnitude more followers than the median and
//     recommendation queries explode on high-degree sources;
//   - tweets carrying mentions and hashtags with Zipf popularity, so
//     co-occurrence and influence queries see skewed result sizes;
//   - the same node/edge *ratios* as Table 1 at a configurable scale
//     (defaults target a laptop; the knobs go up to paper scale).
//
// Generation is deterministic for a given Config (seeded PRNG), so
// every experiment is reproducible. Edge files never contain duplicate
// (src,dst) pairs and a tweet never mentions the same user or carries
// the same hashtag twice, keeping path-counting semantics identical
// across both engines.
package gen

import (
	"encoding/csv"
	"math/rand"
	"os"
)

// Config controls dataset scale and shape. The zero value is unusable;
// call Default for laptop-scale defaults.
type Config struct {
	Seed int64

	Users         int     // number of user nodes
	AvgFollowees  float64 // mean out-degree of the follows graph (paper: ~11.5)
	TweetsPerUser int     // paper retains 2 tweets per tweeting user
	TweetingRatio float64 // fraction of users with tweets (paper: 140k of 24.8M crawled for tweets, but all retained tweets belong to them)
	Hashtags      int     // hashtag vocabulary size
	MentionsPer   float64 // mean mentions per tweet (paper: 11.1M/24M ≈ 0.46)
	TagsPer       float64 // mean hashtags per tweet (paper: 7.1M/24M ≈ 0.30)
	Retweets      bool    // also generate retweets edges (the crawl lacked them)
	RetweetsPer   float64 // mean retweets edges per tweet when enabled
}

// Default returns a laptop-scale configuration preserving the paper's
// ratios: ~2k users, ~23k follows, 2 tweets per tweeting user.
func Default() Config {
	return Config{
		Seed:          42,
		Users:         2000,
		AvgFollowees:  11.5,
		TweetsPerUser: 2,
		TweetingRatio: 1.0,
		Hashtags:      120,
		MentionsPer:   0.46,
		TagsPer:       0.30,
	}
}

// Summary reports what was generated — the scaled counterpart of the
// paper's Table 1.
type Summary struct {
	Users    int `json:"users"`
	Tweets   int `json:"tweets"`
	Hashtags int `json:"hashtags"` // hashtags actually used
	Follows  int `json:"follows"`
	Posts    int `json:"posts"`
	Mentions int `json:"mentions"`
	Tags     int `json:"tags"`
	Retweets int `json:"retweets"`
}

// TotalNodes returns the node count across all types.
func (s Summary) TotalNodes() int { return s.Users + s.Tweets + s.Hashtags }

// TotalEdges returns the edge count across all types.
func (s Summary) TotalEdges() int {
	return s.Follows + s.Posts + s.Mentions + s.Tags + s.Retweets
}

// sampleCount draws a non-negative integer with the given mean using a
// geometric-ish scheme: floor(mean) guaranteed attempts plus a Bernoulli
// for the fraction, then a heavy-ish tail.
func sampleCount(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	k := int(mean)
	if rng.Float64() < mean-float64(k) {
		k++
	}
	// Occasional burst (long tail).
	for rng.Float64() < 0.1 && k > 0 {
		k++
	}
	return k
}

// writeCSV writes header plus rows records, each filled in place by
// fill, to path.
func writeCSV(path string, header []string, rows int, fill func(i int, rec []string)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < rows; i++ {
		fill(i, rec)
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
