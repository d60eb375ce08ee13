package cypher

import (
	"reflect"
	"testing"

	"twigraph/internal/spmat"
)

// TestVarLengthMatrixMatchesDFS pins the algebraic var-length
// expansion against the DFS enumeration: identical rows for the
// depth-2 and depth-1..2 phrasings under Faithful, Tuned and the
// forced gather.
func TestVarLengthMatrixMatchesDFS(t *testing.T) {
	e, _ := newTestEngine(t)
	queries := []string{
		`MATCH (a:user {uid: 1})-[:follows*2..2]->(f:user) RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id`,
		`MATCH (a:user {uid: 1})-[:follows*1..2]->(f:user) RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id`,
		`MATCH (a:user {uid: 2})-[:follows*2..2]->(f:user) WHERE NOT (a)-[:follows]->(f) AND f.uid <> 2
		 RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id`,
	}
	for _, q := range queries {
		e.SetProfile(spmat.Faithful)
		nav := mustQuery(t, e, q, nil)
		for _, mode := range []string{"tuned", "forced"} {
			if mode == "tuned" {
				e.SetProfile(spmat.Tuned)
			} else {
				e.forceMatrix()
			}
			got := mustQuery(t, e, q, nil)
			if !reflect.DeepEqual(got.Rows, nav.Rows) {
				t.Errorf("%s diverges from faithful on %q:\n faithful: %v\n got: %v", mode, q, nav.Rows, got.Rows)
			}
		}
	}
}

// TestVarLengthMatrixProfileName checks that PROFILE reports the
// run-time plan choice: the operator renames itself when the gather
// executes, and stays "VarLengthExpand" under Faithful.
func TestVarLengthMatrixProfileName(t *testing.T) {
	e, _ := newTestEngine(t)
	const q = `PROFILE MATCH (a:user {uid: 1})-[:follows*2..2]->(f:user) RETURN count(*)`
	opNames := func(r *Result) []string {
		var names []string
		for _, st := range r.Profile.Stages {
			for _, op := range st.Ops {
				names = append(names, op.Name)
			}
		}
		return names
	}
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	e.SetProfile(spmat.Faithful)
	nav := mustQuery(t, e, q, nil)
	if names := opNames(nav); !has(names, "VarLengthExpand") || has(names, "VarLengthExpand(matrix)") {
		t.Errorf("faithful profile ops = %v", names)
	}
	e.forceMatrix()
	mat := mustQuery(t, e, q, nil)
	if names := opNames(mat); !has(names, "VarLengthExpand(matrix)") {
		t.Errorf("matrix profile ops = %v", names)
	}
	if e.db.Obs().Counter(spmat.CMatrixHops).Load() == 0 {
		t.Error("matrix hop counter never incremented")
	}
}

// TestVarLengthMatrixIneligible checks the gate bails to the DFS on
// shapes the gather cannot model: bound relationship variables and
// depth-3 expansions keep their DFS semantics under the forced gather.
func TestVarLengthMatrixIneligible(t *testing.T) {
	e, _ := newTestEngine(t)
	queries := []string{
		`MATCH (a:user {uid: 1})-[r:follows*2..2]->(f:user) RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id`,
		`MATCH (a:user {uid: 1})-[:follows*1..3]->(f:user) RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id`,
	}
	for _, q := range queries {
		e.SetProfile(spmat.Faithful)
		nav := mustQuery(t, e, q, nil)
		e.forceMatrix()
		got := mustQuery(t, e, q, nil)
		if !reflect.DeepEqual(got.Rows, nav.Rows) {
			t.Errorf("ineligible shape diverges on %q:\n nav: %v\n got: %v", q, nav.Rows, got.Rows)
		}
	}
}
