// Influence: the paper's Q5 use case — "for targeting promotions a
// retail store might be interested in the community of users whom they
// can influence". Finds the most-mentioned user, then splits their
// mentioners into current influence (already followers) and potential
// influence (not yet followers), on both engines.
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
	dir, err := os.MkdirTemp("", "twigraph-influence-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := gen.Default()
	cfg.Users = 2000
	cfg.MentionsPer = 1.2
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		log.Fatal(err)
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer neoRes.Store.Close()
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Find the account with the widest mention footprint: the "retail
	// store" of the use case.
	star := findMostMentioned(neoRes.Store)
	fmt.Printf("most-mentioned account: user %d\n\n", star)

	for _, s := range []twitter.Store{neoRes.Store, sparkRes.Store} {
		current, err := s.CurrentInfluence(star, 5)
		if err != nil {
			log.Fatal(err)
		}
		potential, err := s.PotentialInfluence(star, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s]\n", s.Name())
		fmt.Println("  current influence (mentioners already following):")
		printCounted(current)
		fmt.Println("  potential influence (mentioners to convert into followers):")
		printCounted(potential)
		fmt.Println()
	}
}

func findMostMentioned(s *twitter.NeoStore) int64 {
	res, err := s.Engine().Query(
		`MATCH (u:user)<-[:mentions]-(t:tweet)
		 RETURN u.uid AS uid, count(*) AS c ORDER BY c DESC LIMIT 1`, nil)
	if err != nil || len(res.Rows) == 0 {
		log.Fatal("no mentions in dataset", err)
	}
	v := res.Rows[0][0]
	return v.(interface{ Int() int64 }).Int()
}

func printCounted(cs []twitter.Counted) {
	if len(cs) == 0 {
		fmt.Println("    (none)")
		return
	}
	for _, c := range cs {
		fmt.Printf("    user %-6d mentioned them %d times\n", c.ID, c.Count)
	}
}
