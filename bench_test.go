// Package twigraph's root test file hosts the testing.B benchmark per
// paper table and figure. Each benchmark drives the same code paths as
// the corresponding internal/bench experiment; `go test -bench=. ./...`
// regenerates every number, and `cmd/twibench` prints the full
// paper-style reports.
package twigraph

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"twigraph/internal/bench"
	"twigraph/internal/gen"
	"twigraph/internal/graph"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

var (
	benchOnce sync.Once
	benchErr  error
	benchEnv  *bench.Env
	benchNeo  *twitter.NeoStore
	benchSprk *twitter.SparkStore
	benchDir  string
)

// benchConfig is the dataset scale used by the benchmarks: smaller than
// the report harness so `go test -bench=.` stays laptop-friendly.
func benchConfig() gen.Config {
	cfg := gen.Default()
	cfg.Users = 1500
	cfg.Hashtags = 100
	cfg.MentionsPer = 0.9
	cfg.TagsPer = 0.6
	cfg.Retweets = true
	cfg.RetweetsPer = 0.25
	return cfg
}

func setup(b *testing.B) (*twitter.NeoStore, *twitter.SparkStore) {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "twigraph-bench-*")
		if benchErr != nil {
			return
		}
		benchEnv = bench.NewEnv(benchConfig(), benchDir)
		benchNeo, benchSprk, benchErr = benchEnv.Stores()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchNeo, benchSprk
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

// BenchmarkTable1DatasetCharacteristics times dataset generation at the
// benchmark scale (the input of Table 1).
func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "csv")
		if _, err := gen.GenerateStream(cfg, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2QueryWorkload runs every twitter.Queries read once per
// iteration on each engine.
func BenchmarkTable2QueryWorkload(b *testing.B) {
	neo, spark := setup(b)
	p := twitter.Params{"uid": int64(1), "uid2": int64(42), "tag": "topic1", "threshold": int64(10)}
	run := func(b *testing.B, s twitter.Store) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, q := range twitter.Queries {
				if !q.Idempotent {
					continue
				}
				if _, err := q.Run(s, p); err != nil {
					b.Fatalf("%s: %v", q.ID, err)
				}
			}
		}
	}
	b.Run("neo", func(b *testing.B) { run(b, neo) })
	b.Run("sparksee", func(b *testing.B) { run(b, spark) })
}

// BenchmarkFig2Neo4jImport times a full batch import into the
// Neo4j-analog (Figure 2 plus the dense-node and index phases).
func BenchmarkFig2Neo4jImport(b *testing.B) {
	cfg := benchConfig()
	cfg.Users = 500
	csvDir := filepath.Join(b.TempDir(), "csv")
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := load.BuildNeo(csvDir, filepath.Join(b.TempDir(), "neo"), neodb.Config{CachePages: 2048}, 0)
		if err != nil {
			b.Fatal(err)
		}
		res.Store.Close()
	}
}

// BenchmarkFig3SparkseeImport times a script import into the
// Sparksee-analog (Figure 3).
func BenchmarkFig3SparkseeImport(b *testing.B) {
	cfg := benchConfig()
	cfg.Users = 500
	csvDir := filepath.Join(b.TempDir(), "csv")
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{
			ImagePath: filepath.Join(b.TempDir(), "img"),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPerEngine runs one workload query on both engines as
// sub-benchmarks.
func benchPerEngine(b *testing.B, run func(s twitter.Store) error) {
	neo, spark := setup(b)
	for _, s := range []twitter.Store{neo, spark} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Q31Cooccurrence is Figure 4(a,b): Q3.1 on both engines.
func BenchmarkFig4Q31Cooccurrence(b *testing.B) {
	benchPerEngine(b, func(s twitter.Store) error {
		_, err := s.CoMentionedUsers(1, 1<<30)
		return err
	})
}

// BenchmarkFig4Q41Recommendation is Figure 4(c,d): Q4.1 on both
// engines.
func BenchmarkFig4Q41Recommendation(b *testing.B) {
	benchPerEngine(b, func(s twitter.Store) error {
		_, err := s.RecommendFollowees(1, 1<<30)
		return err
	})
}

// BenchmarkFig4Q52Influence is Figure 4(e,f): Q5.2 on both engines.
func BenchmarkFig4Q52Influence(b *testing.B) {
	benchPerEngine(b, func(s twitter.Store) error {
		_, err := s.PotentialInfluence(1, 1<<30)
		return err
	})
}

// BenchmarkFig4Q61ShortestPath is Figure 4(g,h): Q6.1 on both engines.
func BenchmarkFig4Q61ShortestPath(b *testing.B) {
	benchPerEngine(b, func(s twitter.Store) error {
		_, _, err := s.ShortestPathLength(1, 977, 3)
		return err
	})
}

// BenchmarkAblationCypherPhrasings compares the three phrasings of the
// recommendation query (§4 discussion, ablation A).
func BenchmarkAblationCypherPhrasings(b *testing.B) {
	neo, _ := setup(b)
	for _, m := range []string{"a", "b", "c"} {
		m := m
		b.Run(m, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := neo.RecommendFolloweesMethod(m, 1, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPlanCache measures parameterised-plan reuse
// (ablation B).
func BenchmarkAblationPlanCache(b *testing.B) {
	neo, _ := setup(b)
	for _, on := range []bool{true, false} {
		on := on
		name := "enabled"
		if !on {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			neo.Engine().SetPlanCache(on)
			defer neo.Engine().SetPlanCache(true)
			for i := 0; i < b.N; i++ {
				if _, err := neo.CoMentionedUsers(int64(i%100)+1, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTopNOverhead measures ordering/limiting overhead
// (ablation C).
func BenchmarkAblationTopNOverhead(b *testing.B) {
	neo, _ := setup(b)
	queries := map[string]string{
		"full": `MATCH (a:user {uid: $uid})-[:follows]->(f:user)<-[:follows]-(x:user)
			WHERE x.uid <> $uid AND NOT (a)-[:follows]->(x)
			RETURN x.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT 10`,
		"bare": `MATCH (a:user {uid: $uid})-[:follows]->(f:user)<-[:follows]-(x:user)
			WHERE x.uid <> $uid AND NOT (a)-[:follows]->(x)
			RETURN x.uid AS id, count(*) AS c`,
	}
	for _, name := range []string{"full", "bare"} {
		q := queries[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := neo.Engine().Query(q, map[string]graph.Value{"uid": graph.IntValue(1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationColdCache measures the cold-cache first-run penalty
// (ablation D).
func BenchmarkAblationColdCache(b *testing.B) {
	neo, _ := setup(b)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := neo.DB().CoolCaches(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := neo.TweetsOfFollowees(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := neo.TweetsOfFollowees(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := neo.TweetsOfFollowees(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNavigationVsTraversal compares declarative,
// traversal-framework, raw-navigation and traversal-class rewrites of
// Q4.1 (ablation E).
func BenchmarkAblationNavigationVsTraversal(b *testing.B) {
	neo, spark := setup(b)
	variants := []struct {
		name string
		run  func() error
	}{
		{"neo-cypher", func() error { _, err := neo.RecommendFollowees(1, 10); return err }},
		{"neo-traversal", func() error { _, err := neo.RecommendFolloweesTraversal(1, 10); return err }},
		{"sparksee-neighbors", func() error { _, err := spark.RecommendFollowees(1, 10); return err }},
		{"sparksee-traversal", func() error { _, err := spark.RecommendFolloweesTraversal(1, 10); return err }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDerivedTopicExperts times the §3.3 composite query.
func BenchmarkDerivedTopicExperts(b *testing.B) {
	benchPerEngine(b, func(s twitter.Store) error {
		_, err := twitter.TopicExperts(s, 1, "topic1", 10)
		return err
	})
}

// BenchmarkUpdateWorkload times the future-work incremental updates.
func BenchmarkUpdateWorkload(b *testing.B) {
	neo, spark := setup(b)
	id := int64(50_000_000)
	for _, s := range []twitter.UpdateStore{neo, spark} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id++
				if err := s.AddUser(id, "bench"); err != nil {
					b.Fatal(err)
				}
				if err := s.AddFollow(id, 1); err != nil {
					b.Fatal(err)
				}
				if err := s.AddTweet(id, id, "bench tweet #topic1", []int64{1}, []string{"topic1"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	layoutOnce sync.Once
	layoutErr  error
	layoutPart *twitter.NeoStore
	layoutBlnd *twitter.NeoStore
)

// BenchmarkAblationSemanticLayout compares the type-partitioned
// (semantic-aware, §5 future work) relationship layout against an
// interleaved one on a cold-cache traversal.
func BenchmarkAblationSemanticLayout(b *testing.B) {
	layoutOnce.Do(func() {
		cfg := benchConfig()
		cfg.Users = 800
		csvDir := filepath.Join(benchLayoutDir(b), "csv")
		if _, layoutErr = gen.GenerateStream(cfg, csvDir); layoutErr != nil {
			return
		}
		build := func(name string, interleaved bool) (*twitter.NeoStore, error) {
			db, err := neodb.Open(filepath.Join(benchLayoutDir(b), name), neodb.Config{CachePages: 4096})
			if err != nil {
				return nil, err
			}
			imp := db.NewImporter(0, nil)
			imp.SetInterleaved(interleaved)
			nodes, edges := neodb.ImportDirLayout(csvDir)
			if _, err := imp.Run(nodes, edges); err != nil {
				db.Close()
				return nil, err
			}
			return twitter.NewNeoStore(db), nil
		}
		if layoutPart, layoutErr = build("part", false); layoutErr != nil {
			return
		}
		layoutBlnd, layoutErr = build("blind", true)
	})
	if layoutErr != nil {
		b.Fatal(layoutErr)
	}
	for _, v := range []struct {
		name  string
		store *twitter.NeoStore
	}{{"partitioned", layoutPart}, {"interleaved", layoutBlnd}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var faults uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := v.store.DB().CoolCaches(); err != nil {
					b.Fatal(err)
				}
				f0 := v.store.DB().CacheFaults()
				b.StartTimer()
				// A fixed 10-user probe cycle keeps the workload
				// identical across sub-benchmarks regardless of b.N.
				if _, err := v.store.TweetsOfFollowees(int64(i%10)*80 + 1); err != nil {
					b.Fatal(err)
				}
				faults += v.store.DB().CacheFaults() - f0
			}
			// ns/op is noise-dominated when the OS has the files
			// cached; the fault count is the durable signal.
			b.ReportMetric(float64(faults)/float64(b.N), "faults/op")
		})
	}
}

var layoutDir string

func benchLayoutDir(b *testing.B) string {
	if layoutDir == "" {
		var err error
		layoutDir, err = os.MkdirTemp("", "twigraph-layout-*")
		if err != nil {
			b.Fatal(err)
		}
	}
	return layoutDir
}

// BenchmarkStreamReplay times live-event application (gen.Stream +
// twitter.Apply), the §5 real-time scenario.
func BenchmarkStreamReplay(b *testing.B) {
	neo, spark := setup(b)
	for _, s := range []twitter.UpdateStore{neo, spark} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			// A per-run stream keeps referential integrity: every user
			// an event references either pre-exists in the engine or
			// was created by an earlier event of this same stream.
			stream := gen.NewStream(benchConfig(), gen.Summary{Users: 1500, Tweets: 3000})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := twitter.Apply(s, stream.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
