// Recommend: the friend-recommendation scenario from the paper's Q4
// category. It builds the dataset, then answers "whom should user A
// follow?" three ways on the declarative engine — the three Cypher
// phrasings of §4 — and once on the navigation engine, timing each and
// verifying they agree.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

func main() {
	dir, err := os.MkdirTemp("", "twigraph-recommend-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := gen.Default()
	cfg.Users = 2000
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
	neo, spark := neoRes.Store, sparkRes.Store

	const uid, topN = 1, 10
	fmt.Printf("recommendations for user %d (top %d, ranked by 2-step path count)\n\n", uid, topN)

	var reference []twitter.Counted
	for _, m := range []struct{ key, desc string }{
		{"a", "Cypher (a): [:follows*2..2] with NOT pattern filter"},
		{"b", "Cypher (b): collect depth-1, check depth-2 against it"},
		{"c", "Cypher (c): expand *1..2, remove depth-1 friends"},
	} {
		start := time.Now()
		recs, err := neo.RecommendFolloweesMethod(m.key, uid, topN)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-55s %8v\n", m.desc, time.Since(start))
		if m.key == "b" {
			reference = recs
		}
	}

	start := time.Now()
	sparkRecs, err := spark.RecommendFollowees(uid, topN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-55s %8v\n", "Sparksee-analog: one Neighbors call per followee", time.Since(start))

	start = time.Now()
	travRecs, err := neo.RecommendFolloweesTraversal(uid, topN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-55s %8v\n\n", "Traversal framework (imperative core API)", time.Since(start))

	for i, r := range reference {
		if sparkRecs[i] != r || travRecs[i] != r {
			log.Fatalf("engines disagree at rank %d: %v vs %v vs %v", i, r, sparkRecs[i], travRecs[i])
		}
	}
	fmt.Println("all five implementations agree; ranked list:")
	for i, r := range reference {
		fmt.Printf("  %2d. user %-6d (%d paths through your followees)\n", i+1, r.ID, r.Count)
	}
}
