package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"twigraph/internal/cypher"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
)

func testEngine(t *testing.T) *cypher.Engine {
	t.Helper()
	db, err := neodb.Open(t.TempDir(), neodb.Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	user := db.Label("user")
	uid := db.PropKey("uid")
	if err := db.CreateIndex(user, uid); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 1; i <= 60; i++ {
		tx.CreateNode(user, graph.Properties{"uid": graph.IntValue(int64(i))})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return cypher.NewEngine(db)
}

func TestRunQueryPrintsRows(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	(&shell{db: e.DB(), engine: e}).runQuery(&buf, `MATCH (u:user {uid: 7}) RETURN u.uid AS id`)
	out := buf.String()
	if !strings.Contains(out, "id") || !strings.Contains(out, "7") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "1 rows in") {
		t.Errorf("missing row count: %q", out)
	}
}

func TestRunQueryTruncatesLongResults(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	(&shell{db: e.DB(), engine: e}).runQuery(&buf, `MATCH (u:user) RETURN u.uid`)
	out := buf.String()
	if !strings.Contains(out, "more rows") {
		t.Errorf("60-row result not truncated: %q", out)
	}
	if !strings.Contains(out, "60 rows in") {
		t.Errorf("missing total count: %q", out)
	}
}

func TestRunQueryPrintsErrors(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	(&shell{db: e.DB(), engine: e}).runQuery(&buf, `THIS IS NOT CYPHER`)
	if !strings.Contains(buf.String(), "error:") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestMetaCommands(t *testing.T) {
	db, err := neodb.Open(t.TempDir(), neodb.Config{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	user := db.Label("user")
	tx := db.Begin()
	for i := 1; i <= 5; i++ {
		tx.CreateNode(user, graph.Properties{"uid": graph.IntValue(int64(i))})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sh := &shell{db: db, engine: cypher.NewEngine(db)}

	var buf bytes.Buffer
	sh.runMeta(&buf, ":trace on")
	if !db.Tracer().Enabled() {
		t.Fatal(":trace on did not enable the tracer")
	}
	sh.runQuery(io.Discard, `MATCH (u:user) RETURN count(*)`)

	buf.Reset()
	sh.runMeta(&buf, ":slow")
	if !strings.Contains(buf.String(), "cypher:") {
		t.Errorf(":slow after a traced query = %q", buf.String())
	}

	buf.Reset()
	sh.runMeta(&buf, ":stats")
	if !strings.Contains(buf.String(), "record_fetches") {
		t.Errorf(":stats missing core counters: %q", buf.String())
	}

	buf.Reset()
	sh.runMeta(&buf, ":reset")
	if db.RecordFetches() != 0 {
		t.Errorf("record fetches after :reset = %d", db.RecordFetches())
	}
	if len(db.Tracer().SlowLog()) != 0 {
		t.Error(":reset did not clear the slow log")
	}

	buf.Reset()
	sh.runMeta(&buf, ":bogus")
	if !strings.Contains(buf.String(), "unknown command") {
		t.Errorf("bogus command output = %q", buf.String())
	}

	buf.Reset()
	sh.runMeta(&buf, ":trace off")
	if db.Tracer().Enabled() {
		t.Fatal(":trace off left the tracer enabled")
	}
}

func TestTopAndLogCommands(t *testing.T) {
	e := testEngine(t)
	sh := &shell{db: e.DB(), engine: e}

	var buf bytes.Buffer
	sh.runMeta(&buf, ":top")
	if !strings.Contains(buf.String(), "no statements recorded") {
		t.Errorf(":top before any query = %q", buf.String())
	}

	// Same shape, different literals: one fingerprint, two calls.
	sh.runQuery(io.Discard, `MATCH (u:user {uid: 3}) RETURN u.uid`)
	sh.runQuery(io.Discard, `MATCH (u:user {uid: 7}) RETURN u.uid`)
	sh.runQuery(io.Discard, `MATCH (u:user) RETURN count(*)`)

	buf.Reset()
	sh.runMeta(&buf, ":top")
	out := buf.String()
	if !strings.Contains(out, "MATCH (u:user {uid: ?}) RETURN u.uid") {
		t.Errorf(":top missing normalised statement: %q", out)
	}
	if !strings.Contains(out, "       2 ") {
		t.Errorf(":top did not collapse literals into 2 calls: %q", out)
	}

	buf.Reset()
	sh.runMeta(&buf, ":top 1")
	if got := strings.Count(buf.String(), "MATCH"); got != 1 {
		t.Errorf(":top 1 shows %d statements: %q", got, buf.String())
	}
	buf.Reset()
	sh.runMeta(&buf, ":top x")
	if !strings.Contains(buf.String(), "usage:") {
		t.Errorf(":top x = %q", buf.String())
	}

	buf.Reset()
	sh.runMeta(&buf, ":log")
	if !strings.Contains(buf.String(), "log level is off") {
		t.Errorf(":log default = %q", buf.String())
	}
	buf.Reset()
	sh.runMeta(&buf, ":log debug")
	if !strings.Contains(buf.String(), "log level debug") || sh.db.Logger().Level() != "debug" {
		t.Errorf(":log debug = %q, level %q", buf.String(), sh.db.Logger().Level())
	}
	buf.Reset()
	sh.runMeta(&buf, ":log nope")
	if !strings.Contains(buf.String(), "error:") {
		t.Errorf(":log nope = %q", buf.String())
	}
	sh.runMeta(io.Discard, ":log off")

	// :reset clears the statement registry too.
	sh.runMeta(io.Discard, ":reset")
	buf.Reset()
	sh.runMeta(&buf, ":top")
	if !strings.Contains(buf.String(), "no statements recorded") {
		t.Errorf(":top after :reset = %q", buf.String())
	}
}

func TestRunQueryProfileOutput(t *testing.T) {
	e := testEngine(t)
	var buf bytes.Buffer
	(&shell{db: e.DB(), engine: e}).runQuery(&buf, `PROFILE MATCH (u:user {uid: 3}) RETURN u.uid`)
	out := buf.String()
	if !strings.Contains(out, "profile:") || !strings.Contains(out, "db hits") {
		t.Errorf("missing profile block: %q", out)
	}
	if !strings.Contains(out, "NodeIndexSeek") {
		t.Errorf("missing operator list: %q", out)
	}
	// A range over a property indexed with few distinct values: the
	// label scan names the index that pruned its candidates.
	db := e.DB()
	user, followers := db.Label("user"), db.PropKey("followers")
	tx := db.Begin()
	for id := graph.NodeID(1); id <= 60; id++ {
		tx.SetNodeProp(id, followers, graph.IntValue(int64(id%6)))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(user, followers); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	(&shell{db: db, engine: e}).runQuery(&buf, `PROFILE MATCH (u:user) WHERE u.followers > 3 RETURN u.uid`)
	if out := buf.String(); !strings.Contains(out, "NodeByLabelScan") ||
		!strings.Contains(out, "pruned by index :user(followers) to 20 candidates") {
		t.Errorf("scan not reported as pruned: %q", out)
	}
}

func TestQueryTimeoutAbortsAndCounts(t *testing.T) {
	e := testEngine(t)
	sh := &shell{db: e.DB(), engine: e}

	var buf bytes.Buffer
	sh.runMeta(&buf, ":timeout 1ns")
	if sh.timeout != time.Nanosecond {
		t.Fatalf(":timeout 1ns set %v", sh.timeout)
	}
	buf.Reset()
	sh.runQuery(&buf, `MATCH (u:user) RETURN u.uid`)
	if !strings.Contains(buf.String(), "error:") {
		t.Fatalf("expired deadline did not abort the query: %q", buf.String())
	}
	if got := sh.db.Obs().Counter(neodb.CQueriesTimedOut).Load(); got == 0 {
		t.Error("queries_timed_out counter not incremented")
	}

	// The store stays fully usable once the bound is lifted.
	sh.runMeta(&buf, ":timeout off")
	if sh.timeout != 0 {
		t.Fatalf(":timeout off left %v", sh.timeout)
	}
	buf.Reset()
	sh.runQuery(&buf, `MATCH (u:user {uid: 7}) RETURN u.uid AS id`)
	if !strings.Contains(buf.String(), "1 rows in") {
		t.Errorf("query after timeout removal = %q", buf.String())
	}

	buf.Reset()
	sh.runMeta(&buf, ":stats")
	if !strings.Contains(buf.String(), "queries_timed_out") {
		t.Errorf(":stats missing queries_timed_out: %q", buf.String())
	}
}
