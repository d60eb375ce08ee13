// Trending: the composite query of the paper's §3.3 "Deriving Other
// Queries" — a user interested in a topic wants accounts to follow.
// The paper could not run it (the crawl lacked retweets edges); the
// generator synthesises them, so this example executes the full
// composition on both engines:
//
//  1. hashtags co-occurring with the topic (Q3.2)
//  2. most retweeted tweets carrying those hashtags
//  3. the original posters of those tweets
//  4. ordered by follows-distance from the asking user (Q6.1)
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

func main() {
	dir, err := os.MkdirTemp("", "twigraph-trending-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := gen.Default()
	cfg.Users = 1500
	cfg.TagsPer = 0.9
	cfg.Retweets = true
	cfg.RetweetsPer = 0.4
	csvDir := filepath.Join(dir, "csv")
	sum, err := gen.GenerateStream(cfg, csvDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d tweets, %d retweets, %d hashtags\n\n", sum.Tweets, sum.Retweets, sum.Hashtags)

	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer neoRes.Store.Close()
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		log.Fatal(err)
	}

	const uid = 7
	const topic = "topic1"

	// First show the co-occurrence building block on its own.
	co, err := neoRes.Store.CoOccurringHashtags(topic, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hashtags co-occurring with #%s:\n", topic)
	for _, c := range co {
		fmt.Printf("  #%-12s %d shared tweets\n", c.Tag, c.Count)
	}

	// Then the full derived query on both engines.
	for _, s := range []twitter.Store{neoRes.Store, sparkRes.Store} {
		experts, err := twitter.TopicExperts(s, uid, topic, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s] accounts user %d should follow about #%s:\n", s.Name(), uid, topic)
		for i, e := range experts {
			dist := fmt.Sprintf("%d hops away", e.Distance)
			if e.Distance == -1 {
				dist = "outside your network"
			}
			fmt.Printf("  %d. user %-6d best tweet retweeted %d times, %s\n",
				i+1, e.UID, e.Retweets, dist)
		}
	}
}
