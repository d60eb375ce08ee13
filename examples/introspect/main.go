// Introspect: the paper's working method, live — "We have often used
// Cypher's profiler to observe the execution plan and determine which
// query plan results in the least number of database hits (db hits) and
// have rephrased the query for better performance."
//
// This example profiles three phrasings of the same recommendation
// query plus an unindexed lookup, prints their plans and db hits, and
// shows how the profiler points at the cheapest phrasing.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"twigraph/internal/cypher"
	"twigraph/internal/gen"
	"twigraph/internal/graph"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
)

func main() {
	dir, err := os.MkdirTemp("", "twigraph-introspect-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := gen.Default()
	cfg.Users = 1500
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		log.Fatal(err)
	}
	res, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Store.Close()
	engine := res.Store.Engine()
	params := map[string]graph.Value{"uid": graph.IntValue(9), "n": graph.IntValue(10)}

	fmt.Println("=== 1. index seek vs label scan ===")
	profile(engine, "seek (indexed uid)",
		`PROFILE MATCH (u:user {uid: $uid}) RETURN u.screen_name`, params)
	profile(engine, "scan (unindexed screen_name)",
		`PROFILE MATCH (u:user) WHERE u.screen_name = 'user9' RETURN u.uid`, params)

	fmt.Println("\n=== 2. three phrasings of the recommendation query (§4) ===")
	profile(engine, "method (a): [:follows*2..2] + NOT pattern", `PROFILE
		MATCH (a:user {uid: $uid})-[:follows*2..2]->(f:user)
		WHERE NOT (a)-[:follows]->(f) AND f.uid <> $uid
		RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`, params)
	profile(engine, "method (b): collect depth-1, check depth-2", `PROFILE
		MATCH (a:user {uid: $uid})-[:follows]->(f1:user)
		WITH a, collect(f1) AS direct
		MATCH (a)-[:follows]->(:user)-[:follows]->(f2:user)
		WHERE NOT f2 IN direct AND f2.uid <> $uid
		RETURN f2.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`, params)
	profile(engine, "method (c): expand *1..2, remove depth-1", `PROFILE
		MATCH (a:user {uid: $uid})-[:follows*1..2]->(f:user)
		WITH a, f
		WHERE NOT (a)-[:follows]->(f) AND f.uid <> $uid
		RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`, params)

	fmt.Println("\nThe profiler makes the paper's conclusion visible: the phrasing that")
	fmt.Println("collects the depth-1 neighbourhood once — method (b) — needs the fewest")
	fmt.Println("database hits, which is why the authors shipped that version.")
}

func profile(engine *cypher.Engine, label, q string, params map[string]graph.Value) {
	res, err := engine.Query(q, params)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	p := res.Profile
	fmt.Printf("\n%-45s %6d db hits   compile %-10v execute %v\n",
		label, p.TotalDBHits, p.Compile, p.Execute)
	for _, st := range p.Stages {
		names := make([]string, len(st.Ops))
		for i, op := range st.Ops {
			names[i] = op.Name
		}
		ops := strings.Join(names, " -> ")
		if ops != "" {
			ops = "  [" + ops + "]"
		}
		fmt.Printf("    %-8s rows=%-7d dbhits=%-7d%s\n", st.Name, st.Rows, st.DBHits, ops)
	}
}
