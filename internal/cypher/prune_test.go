package cypher

import (
	"fmt"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/spmat"
)

// newUserEngine opens a store of n users shaped as the benchmark's:
// uid, screen_name and followers = i % 100.
func newUserEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
	db, err := neodb.Open(tb.TempDir(), neodb.Config{CachePages: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
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
		tb.Fatal(err)
	}
	return NewEngine(db)
}

// TestIndexPrunesOnlyUnderTuned: creating a :user(followers) index
// leaves Faithful's Q1.1 as it was — plan, rows and PROFILE db hits —
// while Tuned scans only the index's candidates, returns the same rows
// and names the index in PROFILE. The label is large enough for Tuned
// to split the pruned scan into morsels.
func TestIndexPrunesOnlyUnderTuned(t *testing.T) {
	const n = 6000
	e := newUserEngine(t, n)
	db := e.DB()
	q := `PROFILE MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`
	params := map[string]graph.Value{"th": graph.IntValue(20)}
	run := func(p spmat.Profile) (*Result, uint64) {
		e.SetProfile(p)
		before := db.RecordFetches()
		res := mustQuery(t, e, q, params)
		return res, db.RecordFetches() - before
	}
	base, baseHits := run(spmat.Faithful)
	if len(base.Rows) != n*79/100 {
		t.Fatalf("%d rows, want %d", len(base.Rows), n*79/100)
	}
	if _, hits := run(spmat.Tuned); hits != baseHits {
		t.Errorf("tuned without an index read %d records, faithful %d", hits, baseHits)
	}
	if err := db.CreateIndex(db.LabelID("user"), db.PropKeyID("followers")); err != nil {
		t.Fatal(err)
	}

	faithful, hits := run(spmat.Faithful)
	if rowsText(faithful) != rowsText(base) || hits != baseHits {
		t.Errorf("faithful with the index: %d rows, %d db hits; without: %d rows, %d db hits",
			len(faithful.Rows), hits, len(base.Rows), baseHits)
	}
	if got, want := faithful.Profile.Stages[0].Ops, base.Profile.Stages[0].Ops; len(got) != len(want) ||
		got[0].Name != want[0].Name || got[0].Index != "" || got[0].DBHits != want[0].DBHits {
		t.Errorf("faithful operators with the index %+v, without %+v", got, want)
	}

	tuned, hits := run(spmat.Tuned)
	if rowsText(tuned) != rowsText(base) {
		t.Errorf("tuned pruned scan: %d rows, faithful %d", len(tuned.Rows), len(base.Rows))
	}
	scan := tuned.Profile.Stages[0].Ops[0]
	if scan.Name != "NodeByLabelScan" || scan.Index != ":user(followers)" || scan.Candidates != len(base.Rows) {
		t.Errorf("tuned scan profile %+v, want index :user(followers) with %d candidates", scan, len(base.Rows))
	}
	if tuned.Profile.TotalDBHits != hits || hits >= baseHits {
		t.Errorf("tuned: PROFILE db hits %d, registry delta %d, faithful %d", tuned.Profile.TotalDBHits, hits, baseHits)
	}

	// A unique index has a value per node: testing each would cost
	// about half the scan, so the scan does not prune with it.
	if err := db.CreateIndex(db.LabelID("user"), db.PropKeyID("uid")); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e, `PROFILE MATCH (u:user) WHERE u.uid > 5900 RETURN u.uid`, nil)
	if scan := res.Profile.Stages[0].Ops[0]; len(res.Rows) != 100 || scan.Index != "" {
		t.Errorf("range on a unique index: %d rows, scan profile %+v, want 100 rows and no index", len(res.Rows), scan)
	}
}
