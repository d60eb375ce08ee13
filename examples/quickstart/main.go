// Quickstart: generate a small Twittersphere, bulk-load it into both
// graph engines, and run the paper's example query plus a few workload
// queries on each. This is the five-minute tour of the library.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"twigraph/internal/gen"
	"twigraph/internal/graph"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

func main() {
	dir, err := os.MkdirTemp("", "twigraph-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate a deterministic synthetic dataset (the stand-in for
	// the paper's 326M-edge Twitter crawl, at laptop scale).
	cfg := gen.Default()
	cfg.Users = 1000
	csvDir := filepath.Join(dir, "csv")
	sum, err := gen.GenerateStream(cfg, csvDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d nodes, %d edges\n", sum.TotalNodes(), sum.TotalEdges())

	// 2. Bulk-load into the Neo4j-analog (record stores + page cache +
	// declarative queries) and the Sparksee-analog (bitmaps +
	// navigation API).
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer neoRes.Store.Close()
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("neo import: %v   sparksee import: %v\n\n",
		neoRes.Report.Total, sparkRes.Report.Duration)

	// 3. The paper's example query, in the declarative language...
	engine := neoRes.Store.Engine()
	res, err := engine.Query(
		`MATCH (u:user {uid: $uid})-[:posts]->(t:tweet) RETURN t.text`,
		map[string]graph.Value{"uid": graph.IntValue(531)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tweets of user 531 (declarative):")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0].(graph.Value).Str())
	}

	// ...and through the Sparksee-analog's navigation API, exactly as
	// the paper's Java snippet does it.
	sdb := sparkRes.Store.DB()
	userType := sdb.FindType("user")
	uidAttr := sdb.FindAttribute(userType, "uid")
	input, _ := sdb.FindObject(uidAttr, graph.IntValue(531))
	postsType := sdb.FindType("posts")
	tweetType := sdb.FindType("tweet")
	textAttr := sdb.FindAttribute(tweetType, "text")
	fmt.Println("tweets of user 531 (navigation API):")
	sdb.Neighbors(input, postsType, graph.Outgoing).ForEach(func(t uint64) bool {
		fmt.Printf("  %s\n", sdb.GetAttribute(t, textAttr).Str())
		return true
	})

	// 4. The engine-agnostic workload interface answers Table 2 queries
	// on either engine with identical results.
	fmt.Println("\ntop recommendations for user 1 (both engines):")
	for _, s := range []twitter.Store{neoRes.Store, sparkRes.Store} {
		recs, err := s.RecommendFollowees(1, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %v\n", s.Name()+":", recs)
	}
}
