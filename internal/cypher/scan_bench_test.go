package cypher

import (
	"fmt"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/spmat"
)

// BenchmarkLabelScanWhere runs Q1.1's shape — a label scan with a
// placed comparison on the third property of each node's chain, then a
// projection of the first — over 30 000 nodes on a cache larger than
// the store. About a fifth of the nodes pass. The faithful sub-benchmark
// runs the plan on one goroutine, the tuned one splits the scan and the
// projection into morsels on GOMAXPROCS workers.
func BenchmarkLabelScanWhere(b *testing.B) {
	const n = 30000
	db, err := neodb.Open(b.TempDir(), neodb.Config{CachePages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	user := db.Label("user")
	tx := db.Begin()
	for i := 1; i <= n; i++ {
		tx.CreateNode(user, graph.Properties{
			"uid":         graph.IntValue(int64(i)),
			"screen_name": graph.StringValue(fmt.Sprintf("user%d", i)),
			"followers":   graph.IntValue(int64(i % 100)),
		})
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(db)
	q := `MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`
	params := map[string]graph.Value{"th": graph.IntValue(79)}
	for _, p := range []spmat.Profile{spmat.Faithful, spmat.Tuned} {
		b.Run(p.String(), func(b *testing.B) {
			e.SetProfile(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.Query(q, params)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != n/5 {
					b.Fatalf("%d rows, want %d", len(res.Rows), n/5)
				}
			}
		})
	}
}
