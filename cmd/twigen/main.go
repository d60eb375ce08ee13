// Command twigen generates a synthetic Twittersphere dataset in the
// shared CSV layout consumed by both engines' bulk loaders.
//
// Usage:
//
//	twigen -out data/ -users 50000 -seed 42 [-retweets]
//
// Generation streams every row as it is drawn and keeps O(users)
// state, so paper-scale datasets fit in memory; the output is
// seed-deterministic.
package main

import (
	"flag"
	"fmt"
	"os"

	"twigraph/internal/gen"
)

func main() {
	cfg := gen.Default()
	out := flag.String("out", "data", "output directory for the CSV files")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "PRNG seed (same seed, same dataset)")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "number of users")
	flag.Float64Var(&cfg.AvgFollowees, "followees", cfg.AvgFollowees, "mean followees per user")
	flag.IntVar(&cfg.TweetsPerUser, "tweets", cfg.TweetsPerUser, "tweets per user")
	flag.IntVar(&cfg.Hashtags, "hashtags", cfg.Hashtags, "hashtag vocabulary size")
	flag.Float64Var(&cfg.MentionsPer, "mentions", cfg.MentionsPer, "mean mentions per tweet")
	flag.Float64Var(&cfg.TagsPer, "tags", cfg.TagsPer, "mean hashtags per tweet")
	flag.BoolVar(&cfg.Retweets, "retweets", false, "also generate retweets edges")
	flag.Float64Var(&cfg.RetweetsPer, "retweets-per", 0.25, "mean retweets per tweet (with -retweets)")
	flag.Parse()

	sum, err := gen.GenerateStream(cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigen:", err)
		os.Exit(1)
	}
	fmt.Printf("dataset written to %s\n\n", *out)
	fmt.Printf("%-12s %12s    %-12s %12s\n", "Node", "Count", "Relationship", "Count")
	fmt.Printf("%-12s %12d    %-12s %12d\n", "user", sum.Users, "follows", sum.Follows)
	fmt.Printf("%-12s %12d    %-12s %12d\n", "tweet", sum.Tweets, "posts", sum.Posts)
	fmt.Printf("%-12s %12d    %-12s %12d\n", "hashtag", sum.Hashtags, "mentions", sum.Mentions)
	fmt.Printf("%-12s %12s    %-12s %12d\n", "", "", "tags", sum.Tags)
	if sum.Retweets > 0 {
		fmt.Printf("%-12s %12s    %-12s %12d\n", "", "", "retweets", sum.Retweets)
	}
	fmt.Printf("%-12s %12d    %-12s %12d\n", "Total", sum.TotalNodes(), "Total", sum.TotalEdges())
}
