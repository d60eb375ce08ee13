package cypher

import (
	"context"
	"testing"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/obs"
)

// TestProfileGuidesRephrasing reproduces the paper's methodology: "We
// have often used Cypher's profiler to observe the execution plan and
// determine which query plan results in the least number of database
// hits (db hits) and have rephrased the query for better performance."
// An index seek must report far fewer db hits than the label-scan
// phrasing of the same lookup.
func TestProfileGuidesRephrasing(t *testing.T) {
	e, _ := newTestEngine(t)
	seek := mustQuery(t, e, `PROFILE MATCH (u:user {uid: 3}) RETURN u.screen_name`, nil)
	scan := mustQuery(t, e, `PROFILE MATCH (u:user) WHERE u.screen_name = 'carol' RETURN u.uid`, nil)
	if seek.Profile == nil || scan.Profile == nil {
		t.Fatal("missing profiles")
	}
	if seek.Profile.TotalDBHits >= scan.Profile.TotalDBHits {
		t.Errorf("index seek hits (%d) not below label scan hits (%d)",
			seek.Profile.TotalDBHits, scan.Profile.TotalDBHits)
	}
	// The plans differ visibly.
	var seekOps, scanOps string
	for _, st := range seek.Profile.Stages {
		for _, op := range st.Ops {
			seekOps += op.Name + " "
		}
	}
	for _, st := range scan.Profile.Stages {
		for _, op := range st.Ops {
			scanOps += op.Name + " "
		}
	}
	if seekOps == scanOps {
		t.Errorf("identical plans: %q", seekOps)
	}
}

func TestProfileTimingspopulated(t *testing.T) {
	e, _ := newTestEngine(t)
	res := mustQuery(t, e, `PROFILE MATCH (u:user) RETURN count(*)`, nil)
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Execute <= 0 {
		t.Error("zero execute time")
	}
	if p.PlanCached {
		t.Error("first run reported cached plan")
	}
	if len(p.Stages) != 2 { // Match + Return
		t.Errorf("stages = %d", len(p.Stages))
	}
	// Second run hits the plan cache.
	res2 := mustQuery(t, e, `PROFILE MATCH (u:user) RETURN count(*)`, nil)
	if !res2.Profile.PlanCached {
		t.Error("second run not cached")
	}
}

func TestAggregateArithmetic(t *testing.T) {
	e, _ := newTestEngine(t)
	res := mustQuery(t, e, `MATCH (u:user) RETURN count(*) * 2 + 1, -count(*)`, nil)
	r := res.Rows[0]
	if intCell(t, r[0]) != 13 || intCell(t, r[1]) != -6 {
		t.Errorf("aggregate arithmetic = %v", r)
	}
	// Mixed aggregate + grouping key arithmetic.
	res = mustQuery(t, e,
		`MATCH (u:user)-[:posts]->(t:tweet) RETURN u.uid, count(t) + 100 AS c ORDER BY c DESC, u.uid LIMIT 1`, nil)
	if intCell(t, res.Rows[0][1]) != 102 { // carol posts 2
		t.Errorf("count+100 = %v", res.Rows)
	}
}

func TestVarLengthZeroMin(t *testing.T) {
	e, _ := newTestEngine(t)
	// *0..1 includes the start node itself.
	res := mustQuery(t, e,
		`MATCH (a:user {uid: 1})-[:follows*0..1]->(f:user) RETURN DISTINCT f.uid ORDER BY f.uid`, nil)
	if len(res.Rows) != 3 { // alice herself + bob + carol
		t.Errorf("*0..1 rows = %v", res.Rows)
	}
	if intCell(t, res.Rows[0][0]) != 1 {
		t.Errorf("start node missing from *0..: %v", res.Rows)
	}
}

func TestParameterTypesInSeek(t *testing.T) {
	e, _ := newTestEngine(t)
	// String parameter against the string-typed screen_name property.
	res := mustQuery(t, e,
		`MATCH (u:user) WHERE u.screen_name = $name RETURN u.uid`,
		map[string]graph.Value{"name": graph.StringValue("eve")})
	if len(res.Rows) != 1 || intCell(t, res.Rows[0][0]) != 5 {
		t.Errorf("string param = %v", res.Rows)
	}
}

// TestProfileHitsMatchRegistry pins the profiler to the observability
// registry: PROFILE's TotalDBHits must equal the delta of the engine's
// record_fetches counter across the query, and the per-stage hits must
// sum to the total — both now come from the same span machinery.
func TestProfileHitsMatchRegistry(t *testing.T) {
	e, _ := newTestEngine(t)
	fetches := e.DB().Obs().Counter(obs.CRecordFetches)
	before := fetches.Load()
	res := mustQuery(t, e,
		`PROFILE MATCH (u:user)-[:follows]->(v:user) RETURN count(*)`, nil)
	delta := fetches.Load() - before
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.TotalDBHits == 0 {
		t.Fatal("zero db hits for a traversal")
	}
	if p.TotalDBHits != delta {
		t.Errorf("TotalDBHits = %d, registry record-fetch delta = %d", p.TotalDBHits, delta)
	}
	var sum uint64
	for _, st := range p.Stages {
		sum += st.DBHits
	}
	if sum != p.TotalDBHits {
		t.Errorf("stage hits sum %d != total %d", sum, p.TotalDBHits)
	}
}

// TestTracerSlowLogCapturesQuery verifies that an enabled tracer records
// finished query spans (stage children included) in the slow log. The
// query reads a property: a bare label scan reads no records at all.
func TestTracerSlowLogCapturesQuery(t *testing.T) {
	e, _ := newTestEngine(t)
	tr := e.DB().Tracer()
	tr.SetEnabled(true)
	tr.SetSlowThreshold(0) // record everything
	defer tr.SetEnabled(false)
	mustQuery(t, e, `MATCH (u:user) WHERE u.uid > 0 RETURN count(*)`, nil)
	log := tr.SlowLog()
	if len(log) == 0 {
		t.Fatal("slow log empty after traced query")
	}
	last := log[len(log)-1]
	if len(last.Children) == 0 {
		t.Errorf("root span %q has no stage children", last.Name)
	}
	if last.Deltas[obs.CRecordFetches] == 0 {
		t.Errorf("root span has zero record-fetch delta: %+v", last.Deltas)
	}
}

// TestProfileStageWallTimeConsistent pins the new per-stage timing to
// the root span: stage wall times are disjoint slices of the execution,
// so their sum can never exceed the root duration, and the operator
// breakdown of each stage accounts for Elapsed = Self + sum(op times).
func TestProfileStageWallTimeConsistent(t *testing.T) {
	e, _ := newTestEngine(t)
	res := mustQuery(t, e,
		`PROFILE MATCH (u:user)-[:follows]->(v:user) RETURN u.uid, count(v) ORDER BY u.uid`, nil)
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Root <= 0 {
		t.Fatalf("root duration = %v", p.Root)
	}
	var sum time.Duration
	for _, st := range p.Stages {
		if st.Elapsed < 0 || st.Self < 0 {
			t.Errorf("stage %s: negative time (elapsed %v, self %v)", st.Name, st.Elapsed, st.Self)
		}
		var ops time.Duration
		for _, op := range st.Ops {
			ops += op.Elapsed
		}
		// Self + op times reconstruct the stage's wall time exactly (Self
		// is derived), modulo the clamp at zero.
		if st.Self > 0 && st.Self+ops != st.Elapsed {
			t.Errorf("stage %s: self %v + ops %v != elapsed %v", st.Name, st.Self, ops, st.Elapsed)
		}
		sum += st.Elapsed
	}
	// Stage spans nest inside the root span; allow scheduler slop well
	// below what a real inconsistency would produce.
	if tol := 20 * time.Millisecond; sum > p.Root+tol {
		t.Errorf("stage time sum %v exceeds root duration %v", sum, p.Root)
	}
}

// TestProfileOperatorTiming verifies the per-operator breakdown carries
// rows, db hits and wall time for a traversal's expand operator.
func TestProfileOperatorTiming(t *testing.T) {
	e, _ := newTestEngine(t)
	res := mustQuery(t, e,
		`PROFILE MATCH (u:user {uid: 1})-[:follows]->(v:user) RETURN v.uid`, nil)
	var match *StageProfile
	for i := range res.Profile.Stages {
		if res.Profile.Stages[i].Name == "Match" {
			match = &res.Profile.Stages[i]
		}
	}
	if match == nil || len(match.Ops) == 0 {
		t.Fatalf("no operator breakdown: %+v", res.Profile.Stages)
	}
	var sawExpand bool
	var opHits uint64
	for _, op := range match.Ops {
		if op.Name == "Expand" {
			sawExpand = true
			if op.Rows == 0 {
				t.Errorf("Expand produced 0 rows")
			}
		}
		opHits += op.DBHits
	}
	if !sawExpand {
		t.Errorf("operators = %+v, want an Expand", match.Ops)
	}
	if opHits == 0 || opHits > match.DBHits {
		t.Errorf("operator hits %d vs stage hits %d", opHits, match.DBHits)
	}
}

// TestSlowLogAbortStatus wires graceful degradation into the slow ring:
// a timed-out and a cancelled query land there with their abort status,
// next to a completed one.
func TestSlowLogAbortStatus(t *testing.T) {
	e, _ := newTestEngine(t)
	tr := e.DB().Tracer()
	tr.SetEnabled(true)
	tr.SetSlowThreshold(0)
	defer tr.SetEnabled(false)

	mustQuery(t, e, `MATCH (u:user) RETURN count(*)`, nil)

	expired, cancelExp := context.WithTimeout(context.Background(), -1)
	defer cancelExp()
	if _, err := e.QueryCtx(expired, `MATCH (u:user) RETURN u.uid`, nil); err == nil {
		t.Fatal("expired query succeeded")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryCtx(cancelled, `MATCH (u:user) RETURN u.uid`, nil); err == nil {
		t.Fatal("cancelled query succeeded")
	}

	log := tr.SlowLog()
	if len(log) < 3 {
		t.Fatalf("slow log entries = %d, want >= 3", len(log))
	}
	tail := log[len(log)-3:]
	want := []string{obs.StatusCompleted, obs.StatusTimedOut, obs.StatusCancelled}
	for i, snap := range tail {
		if snap.Status != want[i] {
			t.Errorf("entry %d (%s) status = %q, want %q", i, snap.Name, snap.Status, want[i])
		}
	}
}
