package twitter_test

import (
	"fmt"
	"testing"

	"twigraph/internal/cypher"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
)

// TestTransactionalBuildsProfileAlike builds the same users three times
// through write transactions and requires Q1.1's PROFILE to read the
// same number of records each time. A property read walks the node's
// chain until it finds the key, so the db hits depend on chain order:
// Tx.CreateNode writes properties in key order, not map order.
func TestTransactionalBuildsProfileAlike(t *testing.T) {
	build := func() uint64 {
		db, err := neodb.Open(t.TempDir(), neodb.Config{CachePages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		user := db.Label(twitter.LabelUser)
		tx := db.Begin()
		for i := 1; i <= 300; i++ {
			tx.CreateNode(user, graph.Properties{
				twitter.PropUID:        graph.IntValue(int64(i)),
				twitter.PropScreenName: graph.StringValue(fmt.Sprintf("user%d", i)),
				twitter.PropFollowers:  graph.IntValue(int64(i % 50)),
			})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e := cypher.NewEngine(db)
		e.SetProfile(spmat.Faithful)
		res, err := e.Query(`PROFILE MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`,
			map[string]graph.Value{"th": graph.IntValue(20)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.TotalDBHits
	}
	first := build()
	for i := 0; i < 2; i++ {
		if hits := build(); hits != first {
			t.Fatalf("build %d: Q1.1 read %d db hits, the first build %d", i+2, hits, first)
		}
	}
}
