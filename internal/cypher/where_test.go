package cypher

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/par"
	"twigraph/internal/spmat"
)

// newWhereEngine builds a small graph for the WHERE-placement tests:
//
//	p1 {id 1, age 30,  score 1.5, name "ann"}
//	p2 {id 2, age 40,  score 2,   name "bob"}   (integer score)
//	p3 {id 3,          score 3.0, name "cat"}   (no age)
//	p4 {id 4, age 25,             name "dan"}   (no score)
//	q9 {id 9, age 30}                           (label q)
//
// with knows edges 1->2, 2->3, 3->1, 1->4 and 4->9.
func newWhereEngine(t *testing.T) *Engine {
	t.Helper()
	db, err := neodb.Open(t.TempDir(), neodb.Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	p, q, knows := db.Label("p"), db.Label("q"), db.RelType("knows")
	tx := db.Begin()
	ids := map[int]graph.NodeID{}
	for _, n := range []struct {
		id    int
		label graph.TypeID
		props graph.Properties
	}{
		{1, p, graph.Properties{"age": graph.IntValue(30), "score": graph.FloatValue(1.5), "name": graph.StringValue("ann")}},
		{2, p, graph.Properties{"age": graph.IntValue(40), "score": graph.IntValue(2), "name": graph.StringValue("bob")}},
		{3, p, graph.Properties{"score": graph.FloatValue(3), "name": graph.StringValue("cat")}},
		{4, p, graph.Properties{"age": graph.IntValue(25), "name": graph.StringValue("dan")}},
		{9, q, graph.Properties{"age": graph.IntValue(30)}},
	} {
		n.props["id"] = graph.IntValue(int64(n.id))
		ids[n.id] = tx.CreateNode(n.label, n.props)
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}, {1, 4}, {4, 9}} {
		tx.CreateRel(knows, ids[e[0]], ids[e[1]])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return NewEngine(db)
}

// rowsText renders a result as "a-b,c-d": cells joined by "-", rows by
// ",", null cells as "null".
func rowsText(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, c := range r {
			if cellIsNull(c) {
				cells[j] = "null"
			} else {
				cells[j] = fmt.Sprint(c)
			}
		}
		rows[i] = strings.Join(cells, "-")
	}
	return strings.Join(rows, ",")
}

// TestWherePlacement runs WHERE shapes whose conjuncts land on different
// steps (or before the first one) and checks the rows.
func TestWherePlacement(t *testing.T) {
	e := newWhereEngine(t)
	flag := map[string]graph.Value{"flag": graph.BoolValue(true), "min": graph.IntValue(28)}
	cases := []struct {
		name   string
		query  string
		params map[string]graph.Value
		want   string
	}{
		{"int property", `MATCH (a:p) WHERE a.age > 28 RETURN a.id ORDER BY a.id`, nil, "1,2"},
		{"parameter", `MATCH (a:p) WHERE a.age > $min RETURN a.id ORDER BY a.id`, flag, "1,2"},
		{"parameter on the left", `MATCH (a:p) WHERE $min < a.age RETURN a.id ORDER BY a.id`, flag, "1,2"},
		{"int literal vs mixed int/float property", `MATCH (a:p) WHERE a.score >= 2 RETURN a.id ORDER BY a.id`, nil, "2,3"},
		{"float literal vs int property", `MATCH (a:p) WHERE a.age < 30.5 RETURN a.id ORDER BY a.id`, nil, "1,4"},
		{"float equals int", `MATCH (a:p) WHERE a.score = 2.0 RETURN a.id`, nil, "2"},
		{"int equals float", `MATCH (a:p) WHERE a.score = 3 RETURN a.id`, nil, "3"},
		{"string comparison", `MATCH (a:p) WHERE a.name >= "bob" RETURN a.id ORDER BY a.id`, nil, "2,3,4"},
		{"string equality", `MATCH (a:p) WHERE a.name = "cat" RETURN a.id`, nil, "3"},
		{"missing property is never unequal", `MATCH (a:p) WHERE a.age <> 30 RETURN a.id ORDER BY a.id`, nil, "2,4"},
		{"nothing equals null", `MATCH (a:p) WHERE a.age = NULL RETURN a.id`, nil, ""},
		{"unknown property key", `MATCH (a:p) WHERE a.nope = 1 OR a.id = 4 RETURN a.id`, nil, "4"},
		// Comparisons collapse null to false, so NOT keeps the node
		// without an age.
		{"NOT over a comparison", `MATCH (a:p) WHERE NOT a.age > 28 RETURN a.id ORDER BY a.id`, nil, "3,4"},
		{"OR", `MATCH (a:p) WHERE a.age > 35 OR a.score < 2 RETURN a.id ORDER BY a.id`, nil, "1,2"},
		{"XOR", `MATCH (a:p) WHERE a.age > 28 XOR a.score >= 2 RETURN a.id ORDER BY a.id`, nil, "1,3"},
		{"conjuncts over different variables",
			`MATCH (a:p)-[:knows]->(b:p) WHERE a.age > 28 AND b.score > 1.8 RETURN a.id, b.id ORDER BY a.id`, nil, "1-2,2-3"},
		{"conjunct over two variables",
			`MATCH (a:p)-[:knows]->(b:p) WHERE a.age < b.age RETURN a.id, b.id`, nil, "1-2"},
		{"pattern predicate over a later pattern's variable",
			`MATCH (a:p), (b:p) WHERE (a)-[:knows]->(b) AND a.id < 3 RETURN a.id, b.id ORDER BY a.id, b.id`, nil, "1-2,1-4,2-3"},
		{"negated pattern predicate",
			`MATCH (a:p), (b:p) WHERE a.id = 1 AND NOT (a)-[:knows]->(b) RETURN b.id ORDER BY b.id`, nil, "1,3"},
		{"pattern predicate with a fresh variable",
			`MATCH (a:p) WHERE (a)-[:knows]->(x:q) RETURN a.id`, nil, "4"},
		{"IN over a WITH list",
			`MATCH (a:p) WHERE a.age > 28 WITH collect(a.id) AS ids MATCH (b:p) WHERE b.id IN ids RETURN b.id ORDER BY b.id`, nil, "1,2"},
		{"conjunct over an earlier clause's variable only",
			`MATCH (a:p {id: 1}) MATCH (a)-[:knows]->(b) WHERE a.age = 30 RETURN b.id ORDER BY b.id`, nil, "2,4"},
		{"false conjunct over an earlier clause's variable",
			`MATCH (a:p {id: 1}) MATCH (a)-[:knows]->(b) WHERE a.age > 100 RETURN b.id`, nil, ""},
		{"variable-free conjuncts", `MATCH (a:p) WHERE 1 = 1 AND $flag AND a.id < 3 RETURN a.id ORDER BY a.id`, flag, "1,2"},
		{"variable-length end node",
			`MATCH (a:p {id: 1})-[r:knows*1..2]->(b) WHERE b.id > 2 RETURN b.id ORDER BY b.id`, nil, "3,4,9"},
		{"variable-length relationship list",
			`MATCH (a:p {id: 1})-[r:knows*1..2]->(b) WHERE length(r) = 2 RETURN b.id ORDER BY b.id`, nil, "3,9"},
		{"OPTIONAL MATCH keeps unmatched rows",
			`MATCH (a:p) OPTIONAL MATCH (a)-[:knows]->(b:p) WHERE b.score > 1.8 RETURN a.id, b.id ORDER BY a.id`, nil,
			"1-2,2-3,3-null,4-null"},
		{"OPTIONAL MATCH with a conjunct on the outer variable",
			`MATCH (a:p) OPTIONAL MATCH (a)-[:knows]->(b:p) WHERE a.age > 35 RETURN a.id, b.id ORDER BY a.id`, nil,
			"1-null,2-3,3-null,4-null"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := rowsText(mustQuery(t, e, c.query, c.params)); got != c.want {
				t.Errorf("%s\n got %q\nwant %q", c.query, got, c.want)
			}
		})
	}
}

func TestWhereMissingParameter(t *testing.T) {
	e := newWhereEngine(t)
	_, err := e.Query(`MATCH (a:p) WHERE a.age > $nope RETURN a.id`, nil)
	if err == nil || !strings.Contains(err.Error(), "missing parameter $nope") {
		t.Fatalf("error = %v, want a missing-parameter error", err)
	}
}

// TestWhereAfterPatternChecks: a conjunct runs after the pattern's own
// label and property checks on the node it reads, so a node the pattern
// rejects never reaches it — here, never trips its missing parameter.
func TestWhereAfterPatternChecks(t *testing.T) {
	e := newWhereEngine(t)
	for _, q := range []string{
		// p4's only neighbour is q9: the expand target's label rejects it.
		`MATCH (a:p {id: 4})-[:knows]->(b:p) WHERE b.age > $missing RETURN b.id`,
		// No neighbour of p1 is named zed.
		`MATCH (a:p {id: 1})-[:knows]->(b {name: "zed"}) WHERE b.age > $missing RETURN b.id`,
		// a is bound by the first clause; the second clause's label
		// check on it rejects every row before the conjunct.
		`MATCH (a:p {id: 4}) MATCH (a:q) WHERE a.age > $missing RETURN a.id`,
	} {
		res, err := e.Query(q, nil)
		if err != nil {
			t.Errorf("%s: %v", q, err)
		} else if len(res.Rows) != 0 {
			t.Errorf("%s: %d rows, want 0", q, len(res.Rows))
		}
	}
	// Nor does the conjunct read anything of a rejected node: with no
	// neighbour passing the label check, the query costs exactly what it
	// costs without the WHERE.
	hits := func(q string) uint64 { return mustQuery(t, e, "PROFILE "+q, nil).Profile.TotalDBHits }
	with := hits(`MATCH (a:p {id: 4})-[:knows]->(b:p) WHERE b.age > 0 RETURN b.id`)
	without := hits(`MATCH (a:p {id: 4})-[:knows]->(b:p) RETURN b.id`)
	if with != without {
		t.Errorf("db hits %d with the WHERE, %d without: the conjunct read a rejected node", with, without)
	}
}

// TestAnchorLabelFilterDropped: a label scan or index seek already
// yields nodes of its label, so the plan carries no label filter after
// it and the scan itself reads no record.
func TestAnchorLabelFilterDropped(t *testing.T) {
	e, _ := newTestEngine(t)
	for _, q := range []string{
		`PROFILE MATCH (u:user) RETURN count(*)`,
		`PROFILE MATCH (u:user {uid: 3}) RETURN count(*)`,
	} {
		res := mustQuery(t, e, q, nil)
		match := res.Profile.Stages[0]
		for _, op := range match.Ops {
			if op.Name == "Filter(label)" {
				t.Errorf("%s: plan %v still filters the anchor's label", q, match.Ops)
			}
		}
		if res.Profile.TotalDBHits != 0 {
			t.Errorf("%s: %d db hits, want 0", q, res.Profile.TotalDBHits)
		}
	}
	// An expanded-to node keeps its label check.
	res := mustQuery(t, e, `PROFILE MATCH (u:user {uid: 1})-[:follows]->(v:user) RETURN v.uid`, nil)
	var sawFilter bool
	for _, op := range res.Profile.Stages[0].Ops {
		sawFilter = sawFilter || op.Name == "Filter(label)"
	}
	if !sawFilter {
		t.Errorf("expand target lost its label filter: %v", res.Profile.Stages[0].Ops)
	}
}

// TestLabelScanAfterDelete: with no label filter behind it, a label
// scan relies on the label scan store dropping deleted nodes.
func TestLabelScanAfterDelete(t *testing.T) {
	e := newWhereEngine(t)
	db := e.DB()
	res := mustQuery(t, e, `MATCH (a:p {id: 4})-[:knows]-(b) RETURN id(a), id(b)`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("%d relationships of p4, want 2", len(res.Rows))
	}
	tx := db.Begin()
	for _, r := range res.Rows {
		a, b := graph.NodeID(intCell(t, r[0])), graph.NodeID(intCell(t, r[1]))
		err := db.Relationships(a, graph.NilType, graph.Any, func(rel neodb.Rel) bool {
			if rel.Src == b || rel.Dst == b {
				tx.DeleteRel(rel.ID)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tx.DeleteNode(graph.NodeID(intCell(t, res.Rows[0][0])))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rowsText(mustQuery(t, e, `MATCH (a:p) RETURN a.id ORDER BY a.id`, nil)); got != "1,2,3" {
		t.Errorf("label scan after delete: %q, want \"1,2,3\"", got)
	}
	if r := db.CheckIntegrity(); !r.OK() {
		t.Errorf("integrity after delete: %v", r)
	}
}

// newScanEngine opens a store holding n nodes of label u, each with one
// property v = i, with the given page-cache size.
func newScanEngine(t *testing.T, dir string, n, cachePages int) *Engine {
	t.Helper()
	db, err := neodb.Open(dir, neodb.Config{CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	// Close fails on a Reader not given back: every scan, forked into
	// morsels or aborted, must release what it held and borrowed.
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	if n > 0 {
		u := db.Label("u")
		tx := db.Begin()
		for i := 1; i <= n; i++ {
			tx.CreateNode(u, graph.Properties{"v": graph.IntValue(int64(i))})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(db)
}

// TestScanRejectsWithoutAllocating pins the scan path's allocation
// profile: a label scan whose WHERE rejects every node allocates the
// same fixed amount whatever the label's size — no per-candidate row,
// boxed binding or boxed comparison result. Under Tuned the labels are
// large enough to split into morsels, which add a fixed number of
// allocations per scan (workers, their contexts, the morsel table) but
// none per morsel or candidate either.
func TestScanRejectsWithoutAllocating(t *testing.T) {
	allocs := func(p spmat.Profile, n int) float64 {
		e := newScanEngine(t, t.TempDir(), n, 64)
		e.SetProfile(p)
		q := `MATCH (x:u) WHERE x.v > $th RETURN x.v`
		params := map[string]graph.Value{"th": graph.IntValue(int64(n))}
		if res := mustQuery(t, e, q, params); len(res.Rows) != 0 {
			t.Fatalf("%d rows, want 0", len(res.Rows))
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Query(q, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A per-candidate allocation would add about 2900 (Faithful) or
	// 45000 (Tuned) here; the slack only absorbs background allocations
	// the process-wide count sees.
	for _, c := range []struct {
		p            spmat.Profile
		small, large int
	}{{spmat.Faithful, 100, 3000}, {spmat.Tuned, 5000, 50000}} {
		small, large := allocs(c.p, c.small), allocs(c.p, c.large)
		if large > small+10 {
			t.Errorf("%s: allocations per query: %v for %d nodes, %v for %d", c.p, small, c.small, large, c.large)
		}
	}
}

// TestProfileHitsMatchRegistryWithPlacedWhere: with the WHERE evaluated
// inside the scan, PROFILE's db hits still equal the engine registry's
// record-fetch delta, and the operators account for all of them.
func TestProfileHitsMatchRegistryWithPlacedWhere(t *testing.T) {
	e := newScanEngine(t, t.TempDir(), 2000, 64)
	before := e.DB().RecordFetches()
	res := mustQuery(t, e, `PROFILE MATCH (x:u) WHERE x.v > 1500 RETURN x.v`, nil)
	delta := e.DB().RecordFetches() - before
	p := res.Profile
	if len(res.Rows) != 500 {
		t.Fatalf("%d rows, want 500", len(res.Rows))
	}
	if p.TotalDBHits != delta {
		t.Errorf("TotalDBHits = %d, registry delta = %d", p.TotalDBHits, delta)
	}
	// Each node costs its node record and its one property record, in
	// the scan and again in the projection for the rows that pass.
	if want := uint64(2*2000 + 2*500); p.TotalDBHits != want {
		t.Errorf("TotalDBHits = %d, want %d", p.TotalDBHits, want)
	}
	var ops uint64
	for _, op := range p.Stages[0].Ops {
		ops += op.DBHits
	}
	if ops != p.Stages[0].DBHits {
		t.Errorf("operator hits %d, match stage hits %d", ops, p.Stages[0].DBHits)
	}
}

// abortAfter is a context whose Err reports a deadline from its n-th
// call on: the executor polls Err once per input row and then every
// 1024 candidates, so a small n aborts in the middle of a scan.
type abortAfter struct {
	context.Context
	n int
}

func (c *abortAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestReaderPinsReleased runs queries on a one-page cache, where a pin
// left behind by a finished query makes every later read of another
// page fail. Each query below ends on a different page than the next
// one starts on: after success, after an evaluation error and after a
// deadline in the middle of a scan, a follow-up query and a checkpoint
// must still succeed.
func TestReaderPinsReleased(t *testing.T) {
	dir := t.TempDir()
	const n = 3000 // node records span 12 pages, property records 9
	// Build with a normal cache, then reopen with one page per file.
	func() {
		db, err := neodb.Open(dir, neodb.Config{CachePages: 64})
		if err != nil {
			t.Fatal(err)
		}
		u := db.Label("u")
		tx := db.Begin()
		for i := 1; i <= n; i++ {
			tx.CreateNode(u, graph.Properties{"v": graph.IntValue(int64(i))})
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	e := newScanEngine(t, dir, 0, 1)
	followUp := func(after string) {
		t.Helper()
		res, err := e.Query(`MATCH (x:u) WHERE x.v = 1 RETURN x.v`, nil)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("follow-up query after %s: rows %v, err %v", after, res, err)
		}
		if err := e.DB().Sync(); err != nil {
			t.Fatalf("checkpoint after %s: %v", after, err)
		}
	}

	res, err := e.Query(`MATCH (x:u) WHERE x.v > $th RETURN x.v`, map[string]graph.Value{"th": graph.IntValue(n - 1)})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("scan: rows %v, err %v", res, err)
	}
	followUp("success")

	if _, err := e.Query(`MATCH (x:u) WHERE x.v > $missing RETURN x.v`, nil); err == nil {
		t.Fatal("missing parameter: no error")
	}
	followUp("an evaluation error")

	ctx := &abortAfter{Context: context.Background(), n: 3}
	if _, err := e.QueryCtx(ctx, `MATCH (x:u) WHERE x.v > 0 RETURN x.v`, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-scan deadline: err %v", err)
	}
	followUp("a mid-scan deadline")
}

// TestConcurrentScansOnSmallCache runs concurrent scans on a 64-page
// cache over stores larger than the cache. Each executing query keeps at
// most one page of each store file pinned, so 8 concurrent queries
// leave most frames to evict. Under Tuned a scan forks workers, with a
// Reader each, only while the database's open Readers fit the cache's
// frames.
func TestConcurrentScansOnSmallCache(t *testing.T) {
	const n = 20000 // node records span 79 pages, property records 59
	e := newScanEngine(t, t.TempDir(), n, 64)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 3; i++ {
				th := int64(n - 100*(w+1) - i)
				res, err := e.Query(`MATCH (x:u) WHERE x.v > $th RETURN x.v`,
					map[string]graph.Value{"th": graph.IntValue(th)})
				if err == nil && int64(len(res.Rows)) != n-th {
					err = fmt.Errorf("th %d: %d rows, want %d", th, len(res.Rows), n-th)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentForksShareReaders runs Tuned scans from two engines at
// once over one database on a 2-page cache. Serially, two queries fit:
// each pins at most one page per file. One engine scans back to back,
// so it mostly finds a frame to spare and forks a second worker; the
// other starts a scan every so often, while the first one's workers
// hold both frames. Borrowed Readers must make way, so no scan finds a
// cache fully pinned.
func TestConcurrentForksShareReaders(t *testing.T) {
	const n = 5000
	a := newScanEngine(t, t.TempDir(), n, 2)
	b := NewEngine(a.DB())
	scan := func(e *Engine, th int64) error {
		res, err := e.Query(`MATCH (x:u) WHERE x.v > $th RETURN x.v`,
			map[string]graph.Value{"th": graph.IntValue(th)})
		if err == nil && int64(len(res.Rows)) != n-th {
			err = fmt.Errorf("th %d: %d rows, want %d", th, len(res.Rows), n-th)
		}
		return err
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 200; i++ {
			if err := scan(a, int64(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
			return
		case <-time.After(100 * time.Microsecond):
			if err := scan(b, n/2); err != nil {
				t.Error(err)
				<-done
				return
			}
		}
	}
}

// buildDiffStore writes the differential tests' store into dir: n
// nodes of label u (2 with label v in between) whose properties mix
// ints, floats, short and multi-block strings and missing keys, with
// padding so property chains run across page boundaries; every 7th u
// node is then deleted, leaving holes in the label bitmap.
func buildDiffStore(t *testing.T, dir string, n int) {
	t.Helper()
	db, err := neodb.Open(dir, neodb.Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	u, v := db.Label("u"), db.Label("v")
	tx := db.Begin()
	var dead []graph.NodeID
	for i := 0; i < n; i++ {
		props := graph.Properties{"id": graph.IntValue(int64(i))}
		switch i % 5 {
		case 0:
			props["a"] = graph.FloatValue(float64(i%97) + 0.5)
		case 1, 2:
			props["a"] = graph.IntValue(int64(i % 97))
		case 3: // no a
		case 4:
			props["a"] = graph.IntValue(20)
		}
		if i%3 != 0 {
			props["b"] = graph.IntValue(int64(i % 61))
		}
		if i%4 != 0 {
			props["s"] = graph.StringValue(strings.Repeat(string(rune('a'+i%26)), 1+i%120))
		}
		for k := 0; k < i%6; k++ {
			props[fmt.Sprintf("pad%d", k)] = graph.IntValue(int64(k))
		}
		id := tx.CreateNode(u, props)
		if i%7 == 3 {
			dead = append(dead, id)
		}
		if i == 1000 || i == 2048 {
			tx.CreateNode(v, graph.Properties{"id": graph.IntValue(-1)})
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	for _, id := range dead {
		tx.DeleteNode(id)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlacedWhereMatchesPostProjection: a WHERE placed on the scan —
// its leading property comparisons evaluated a batch of candidates at a
// time — returns the rows, and reads the records, of the same WHERE
// evaluated row by row after a projection, on a one-page cache and on
// a striped 64-page one. PROFILE's db hits for the placed form equal
// the registry's delta.
func TestPlacedWhereMatchesPostProjection(t *testing.T) {
	dir := t.TempDir()
	buildDiffStore(t, dir, 2600)
	for _, pages := range []int{1, 64} {
		e := newScanEngine(t, dir, 0, pages)
		db := e.DB()
		for _, p := range diffPreds {
			ret := ` RETURN x.id AS id, x.a AS a, x.s AS s, x.b AS b ORDER BY id`
			placed := `MATCH (x:u) WHERE ` + p + ret
			post := `MATCH (x:u) WITH x WHERE ` + p + ret
			before := db.RecordFetches()
			want := mustQuery(t, e, post, diffParams)
			postHits := db.RecordFetches() - before
			before = db.RecordFetches()
			got := mustQuery(t, e, "PROFILE "+placed, diffParams)
			placedHits := db.RecordFetches() - before
			if rowsText(got) != rowsText(want) {
				t.Errorf("%d pages, WHERE %s: %d rows placed, %d after projection", pages, p, len(got.Rows), len(want.Rows))
			}
			if got.Profile.TotalDBHits != placedHits {
				t.Errorf("%d pages, WHERE %s: PROFILE db hits %d, registry delta %d", pages, p, got.Profile.TotalDBHits, placedHits)
			}
			if placedHits != postHits {
				t.Errorf("%d pages, WHERE %s: %d records read placed, %d after projection", pages, p, placedHits, postHits)
			}
		}
		if len(mustQuery(t, e, `MATCH (x:u) WHERE x.id >= 0 RETURN x.id`, nil).Rows) != 2600-2600/7 {
			t.Errorf("%d pages: label scan does not skip the deleted nodes", pages)
		}
	}
}

// diffParams and diffPreds are the differential tests' WHERE shapes
// over buildDiffStore's nodes: comparisons of every operator and
// operand order over ints, floats, strings, missing and unknown keys,
// and conjunctions whose batched prefix is empty, partial or whole.
var (
	diffParams = map[string]graph.Value{"th": graph.IntValue(40), "f": graph.FloatValue(30.5), "str": graph.StringValue("m")}
	diffPreds  = []string{
		`x.a > 10`,
		`x.a >= 10.5`,
		`x.a = 20`,
		`x.a <> 20`,
		`x.a < $th`,
		`$f < x.a`,
		`x.a = 20.0`,
		`x.s >= $str`,
		`x.s = "ccc"`,
		`x.s < "d"`,
		`x.b = 7`,
		`x.nope > 1`,
		`x.a = NULL`,
		`x.a > 5 AND x.b < 50`,
		`x.a > 5 AND x.id % 3 = 0`,
		`x.id % 3 = 0 AND x.a > 5`,
		`x.a > 5 OR x.b < 3`,
		`x.b > 1.5 AND x.s < "k" AND x.a <= 100`,
		`$th > x.b AND x.a <> 20 AND x.s <> "zzz"`,
	}
)

// TestScanProfilesAgree: on a label of five batches, Tuned runs the
// scan and the projection as morsels on forked workers, and returns
// the rows of Faithful's serial loop in the same order — there is no
// ORDER BY — reading the same records, with PROFILE's db hits equal to
// the registry's delta. On a 64-page cache, on a 2-page one, whose two
// frames per file admit exactly two Readers, and on a 1-page one, where
// Tuned has no frame for a second Reader and stays serial.
func TestScanProfilesAgree(t *testing.T) {
	dir := t.TempDir()
	const n = 5000 // 4286 live u nodes
	buildDiffStore(t, dir, n)
	for _, pages := range []int{64, 2, 1} {
		e := newScanEngine(t, dir, 0, pages)
		db := e.DB()
		shards := db.Obs().Counter(par.CShards)
		fork := pages > 1 && runtime.GOMAXPROCS(0) > 1
		for _, p := range diffPreds {
			q := `PROFILE MATCH (x:u) WHERE ` + p + ` RETURN x.id AS id, x.a AS a, x.s AS s, x.b AS b`
			var rows [2]string
			var hits [2]uint64
			for i, prof := range []spmat.Profile{spmat.Faithful, spmat.Tuned} {
				e.SetProfile(prof)
				before, forks := db.RecordFetches(), shards.Load()
				res := mustQuery(t, e, q, diffParams)
				rows[i], hits[i] = rowsText(res), db.RecordFetches()-before
				if res.Profile.TotalDBHits != hits[i] {
					t.Errorf("%d pages, %s, WHERE %s: PROFILE db hits %d, registry delta %d", pages, prof, p, res.Profile.TotalDBHits, hits[i])
				}
				if forked := shards.Load() > forks; forked != (prof == spmat.Tuned && fork) {
					t.Errorf("%d pages, %s, WHERE %s: forked workers %v", pages, prof, p, forked)
				}
			}
			if rows[0] != rows[1] {
				t.Errorf("%d pages, WHERE %s: tuned rows differ from faithful ones", pages, p)
			}
			if hits[0] != hits[1] {
				t.Errorf("%d pages, WHERE %s: %d records read faithful, %d tuned", pages, p, hits[0], hits[1])
			}
		}
		if got := len(mustQuery(t, e, `MATCH (x:u) RETURN x.id`, nil).Rows); got != n-n/7 {
			t.Errorf("%d pages: %d rows, want %d", pages, got, n-n/7)
		}
		if pinned := db.PinnedPages(); pinned != 0 {
			t.Errorf("%d pages: %d pages still pinned", pages, pinned)
		}
	}
}

// TestProjectedPropertiesMatchRowWise: RETURN items read a batch of
// rows at a time return what NodeProp returns row by row — strings,
// mixed numbers, missing and unknown keys — and read exactly the
// records NodeProp reads, none for an unknown key.
func TestProjectedPropertiesMatchRowWise(t *testing.T) {
	dir := t.TempDir()
	buildDiffStore(t, dir, 2600)
	e := newScanEngine(t, dir, 0, 1)
	db := e.DB()
	keys := []string{"a", "s", "b", "pad4", "nope"}
	before := db.RecordFetches()
	res := mustQuery(t, e, `MATCH (x:u) RETURN id(x), x.a, x.s, x.b, x.pad4, x.nope`, nil)
	hits := db.RecordFetches() - before
	before = db.RecordFetches()
	for _, r := range res.Rows {
		id := graph.NodeID(intCell(t, r[0]))
		for j, k := range keys {
			want := graph.NilValue
			if key := db.PropKeyID(k); key != graph.NilAttr {
				v, err := db.NodeProp(id, key)
				if err != nil {
					t.Fatal(err)
				}
				want = v
			}
			if got := r[j+1].(graph.Value); !got.Equal(want) || got.Kind() != want.Kind() {
				t.Fatalf("node %d, %s: %v, NodeProp says %v", id, k, got, want)
			}
		}
	}
	if rowWise := db.RecordFetches() - before; hits != rowWise {
		t.Errorf("projection read %d records, row by row %d", hits, rowWise)
	}
}

// countingCtx counts Err polls and reports a deadline from poll failAt
// on (never when failAt is 0). Morsel workers poll it concurrently.
type countingCtx struct {
	context.Context
	polls  atomic.Int64
	failAt int64
}

func (c *countingCtx) Err() error {
	if n := c.polls.Add(1); c.failAt > 0 && n >= c.failAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestProjectionPollsOnStride: projections poll the context once per
// 1024 rows, not once per row, and a deadline that expires while a
// projection of 12 000 rows runs — the last poll of the query — still
// aborts it, counted exactly once. Under Tuned the scan and the
// projection run as 12 morsels on forked workers, which poll at the
// same rows, and so as often, as the serial loop does.
func TestProjectionPollsOnStride(t *testing.T) {
	const n = 12000
	e := newScanEngine(t, t.TempDir(), n, 64)
	shards := e.DB().Obs().Counter(par.CShards)
	serial := map[string]int64{}
	for _, p := range []spmat.Profile{spmat.Faithful, spmat.Tuned} {
		e.SetProfile(p)
		for _, q := range []string{
			`MATCH (x:u) RETURN x.v + 1 AS w`,
			`MATCH (x:u) RETURN x.v % 7 AS k, count(*) AS c`,
		} {
			free := &countingCtx{Context: context.Background()}
			forks := shards.Load()
			if _, err := e.QueryCtx(free, q, nil); err != nil {
				t.Fatalf("%s %s: %v", p, q, err)
			}
			if forked := shards.Load() > forks; forked != (p == spmat.Tuned && runtime.GOMAXPROCS(0) > 1) {
				t.Errorf("%s %s: forked workers %v", p, q, forked)
			}
			// One poll per input row of the match stage, then one per 1024
			// rows over the scan's and the projection's n rows each.
			polls := free.polls.Load()
			if lo, hi := int64(2*n/1024-1), int64(2*n/1024+2); polls < lo || polls > hi {
				t.Errorf("%s %s: %d context polls, want %d to %d", p, q, polls, lo, hi)
			}
			if p == spmat.Faithful {
				serial[q] = polls
			} else if polls != serial[q] {
				t.Errorf("%s %s: %d context polls, %d serially", p, q, polls, serial[q])
			}
			timedOut := e.DB().Obs().Counter(neodb.CQueriesTimedOut)
			before := timedOut.Load()
			late := &countingCtx{Context: context.Background(), failAt: polls}
			if _, err := e.QueryCtx(late, q, nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s %s: deadline in the projection: err %v", p, q, err)
			}
			if got := timedOut.Load() - before; got != 1 {
				t.Errorf("%s %s: queries_timed_out went up by %d, want 1", p, q, got)
			}
		}
	}
}
