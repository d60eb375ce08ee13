package cypher

import (
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/spmat"
)

// BenchmarkLabelScanWhere runs Q1.1's shape — a label scan with a
// placed comparison on the third property of each node's chain, then a
// projection of the first — over 30 000 nodes on a cache larger than
// the store. About a fifth of the nodes pass. The faithful sub-benchmark
// runs the plan on one goroutine, the tuned one splits the scan and the
// projection into morsels on GOMAXPROCS workers, and tuned-indexed
// adds a :user(followers) index, which the tuned scan prunes its
// candidates with.
func BenchmarkLabelScanWhere(b *testing.B) {
	const n = 30000
	e := newUserEngine(b, n)
	q := `MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`
	params := map[string]graph.Value{"th": graph.IntValue(79)}
	for _, c := range []struct {
		name    string
		p       spmat.Profile
		indexed bool
	}{{"faithful", spmat.Faithful, false}, {"tuned", spmat.Tuned, false}, {"tuned-indexed", spmat.Tuned, true}} {
		if c.indexed {
			db := e.DB()
			if err := db.CreateIndex(db.LabelID("user"), db.PropKeyID("followers")); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			e.SetProfile(c.p)
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
