package twitter_test

import (
	"fmt"
	"math/rand"
	"testing"

	"twigraph/internal/cypher"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
	"twigraph/internal/vfs"
)

// pruneStore is a neodb store on a fault-injecting filesystem whose
// :user(followers) index holds a mix of ints, floats and strings, with
// users that never had the key and users whose key was cleared.
type pruneStore struct {
	t     *testing.T
	fs    *vfs.FaultFS
	db    *neodb.DB
	rng   *rand.Rand
	users []graph.NodeID // the users the test created, in order
}

func (p *pruneStore) config() neodb.Config {
	return neodb.Config{CachePages: 64, SyncCommits: true, FS: p.fs}
}

func (p *pruneStore) open() {
	p.t.Helper()
	db, err := neodb.Open("/db", p.config())
	if err != nil {
		p.t.Fatal(err)
	}
	p.db = db
}

// followersValue draws a value for the indexed key: nil (cleared) in
// one case of eight, otherwise an int, a float with or without a
// fraction, or a string. The 28 distinct values leave over eight users
// per value, so Tuned prunes with the index.
func (p *pruneStore) followersValue() graph.Value {
	n := p.rng.Intn(7)
	switch p.rng.Intn(8) {
	case 0:
		return graph.NilValue
	case 1, 2, 3:
		return graph.IntValue(int64(n))
	case 4:
		return graph.FloatValue(float64(n) + 0.5)
	case 5:
		return graph.FloatValue(float64(n))
	default:
		return graph.StringValue(fmt.Sprintf("f%02d", n))
	}
}

func (p *pruneStore) commit(tx *neodb.Tx) {
	p.t.Helper()
	if err := tx.Commit(); err != nil {
		p.t.Fatal(err)
	}
}

// pruneOperands are the comparison operands: null, ints, floats equal
// to an int or between two, and a string.
var pruneOperands = []graph.Value{
	graph.NilValue, graph.IntValue(3), graph.IntValue(0), graph.FloatValue(3.5),
	graph.FloatValue(2), graph.StringValue("f03"),
}

// prunePreds are the WHERE shapes: each operator with the property on
// either side of a parameter, literal operands (float thresholds over
// int values among them), conjunctions whose indexed comparison comes
// first, second, or after a conjunct that ends the batched prefix, and
// two indexed conjuncts, of which only the first, the one the index
// decides, is not tested again.
func prunePreds() []string {
	var preds []string
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		preds = append(preds, "u.followers "+op+" $x", "$x "+op+" u.followers")
	}
	return append(preds,
		`u.followers > 3`, `u.followers = "f03"`, `2.5 >= u.followers`, `u.followers <> NULL`,
		`3 < u.followers`, `u.followers > 2.5`, `u.followers >= 3.0`, `u.followers <> 3`,
		`u.uid > 100 AND u.followers <= $x`,
		`u.followers >= $x AND u.uid % 2 = 0`,
		`u.uid % 2 = 0 AND u.followers > $x`,
		`u.nope > 1 AND u.followers < $x`,
		`u.followers >= $x AND u.followers < 5`,
		`$x < u.followers AND u.followers <> 4`,
		`u.followers <> $x AND u.followers <> 3`,
	)
}

// check runs every predicate and operand under Faithful (a full label
// scan) and Tuned (pruned by the index) and requires the same rows in
// the same order, then requires a clean integrity check.
func (p *pruneStore) check(step string) {
	p.t.Helper()
	faithful, tuned := cypher.NewEngine(p.db), cypher.NewEngine(p.db)
	faithful.SetProfile(spmat.Faithful)
	for _, pred := range prunePreds() {
		q := `MATCH (u:user) WHERE ` + pred + ` RETURN u.uid AS uid, u.followers AS f`
		for _, x := range pruneOperands {
			params := map[string]graph.Value{"x": x}
			want, err := faithful.Query(q, params)
			if err != nil {
				p.t.Fatalf("%s: faithful %s, $x = %v: %v", step, pred, x, err)
			}
			got, err := tuned.Query(q, params)
			if err != nil {
				p.t.Fatalf("%s: tuned %s, $x = %v: %v", step, pred, x, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				p.t.Errorf("%s: WHERE %s, $x = %v: tuned %d rows %v, faithful %d rows %v",
					step, pred, x, len(got.Rows), got.Rows, len(want.Rows), want.Rows)
			}
		}
	}
	// Q1.1 is pruned under Tuned, to exactly its rows, and not under
	// Faithful.
	q1 := `PROFILE MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`
	th := map[string]graph.Value{"th": graph.IntValue(3)}
	for _, c := range []struct {
		e     *cypher.Engine
		index string
	}{{faithful, ""}, {tuned, ":user(followers)"}} {
		res, err := c.e.Query(q1, th)
		if err != nil {
			p.t.Fatal(err)
		}
		scan := res.Profile.Stages[0].Ops[0]
		if scan.Name != "NodeByLabelScan" || scan.Index != c.index {
			p.t.Errorf("%s: Q1.1 scan %+v, want index %q", step, scan, c.index)
		} else if c.index != "" && scan.Candidates != len(res.Rows) {
			p.t.Errorf("%s: Q1.1 index left %d candidates for %d rows", step, scan.Candidates, len(res.Rows))
		}
	}
	// Counting Q1.1's rows under Tuned reads no record: the index
	// decided the one conjunct, and nothing else reads a property.
	qc := `PROFILE MATCH (u:user) WHERE u.followers > $th RETURN count(*) AS n`
	want, err := faithful.Query(qc, th)
	if err != nil {
		p.t.Fatal(err)
	}
	got, err := tuned.Query(qc, th)
	if err != nil {
		p.t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.Profile.TotalDBHits != 0 {
		p.t.Errorf("%s: tuned count %v in %d db hits, faithful count %v", step, got.Rows, got.Profile.TotalDBHits, want.Rows)
	}
	if r := p.db.CheckIntegrity(); !r.OK() {
		p.t.Fatalf("%s: %s", step, r)
	}
}

// TestPrunedScanMatchesFullScan: a Tuned label scan pruned by a schema
// index returns the rows of Faithful's full scan, in order, for every
// comparison operator and operand kind, as the index follows
// SetNodeProp, property removal, DeleteNode, AddUser, a reopen and WAL
// replay after a crash.
func TestPrunedScanMatchesFullScan(t *testing.T) {
	p := &pruneStore{t: t, fs: vfs.NewFaultFS(), rng: rand.New(rand.NewSource(7))}
	p.open()
	user := p.db.Label(twitter.LabelUser)
	uid, followers := p.db.PropKey(twitter.PropUID), p.db.PropKey(twitter.PropFollowers)
	if err := p.db.CreateIndex(user, uid); err != nil {
		t.Fatal(err)
	}
	if err := p.db.CreateIndex(user, followers); err != nil {
		t.Fatal(err)
	}
	tx := p.db.Begin()
	var cleared []graph.NodeID
	for i := 1; i <= 400; i++ {
		props := graph.Properties{twitter.PropUID: graph.IntValue(int64(i))}
		if i%6 != 0 { // every sixth user never has the key
			props[twitter.PropFollowers] = graph.IntValue(int64(i % 7))
		}
		id := tx.CreateNode(user, props)
		p.users = append(p.users, id)
		if i%6 == 1 {
			cleared = append(cleared, id)
		}
	}
	p.commit(tx)
	tx = p.db.Begin()
	for _, id := range p.users {
		if v := p.followersValue(); !v.IsNil() && p.rng.Intn(2) == 0 {
			tx.SetNodeProp(id, followers, v)
		}
	}
	for _, id := range cleared { // null: a cleared key leaves a tombstone
		tx.SetNodeProp(id, followers, graph.NilValue)
	}
	p.commit(tx)
	p.check("build")

	tx = p.db.Begin()
	for i := 0; i < 120; i++ {
		tx.SetNodeProp(p.users[p.rng.Intn(len(p.users))], followers, p.followersValue())
	}
	p.commit(tx)
	p.check("SetNodeProp")

	tx = p.db.Begin()
	for i := 0; i < 40; i++ {
		tx.SetNodeProp(p.users[p.rng.Intn(len(p.users))], followers, graph.NilValue)
	}
	p.commit(tx)
	p.check("property removal")

	tx = p.db.Begin()
	for _, i := range p.rng.Perm(len(p.users))[:30] {
		tx.DeleteNode(p.users[i])
	}
	p.commit(tx)
	p.check("DeleteNode")

	store := twitter.NewNeoStore(p.db)
	for i := int64(0); i < 5; i++ {
		if err := store.AddUser(10_000+i, fmt.Sprintf("new%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.check("AddUser")

	if err := p.db.Close(); err != nil {
		t.Fatal(err)
	}
	p.open()
	p.check("reopen")

	// Commit two transactions after the last checkpoint with the
	// filesystem set to halt after the first WAL sync: the first is
	// durable only in the log, the second fails. Reopening replays it.
	live := p.db.NodesByLabel(user).Slice()
	p.fs.CrashAfter(vfs.OpSync, 1)
	for round := 0; round < 2; round++ {
		tx = p.db.Begin()
		for i := 0; i < 60; i++ {
			id := live[p.rng.Intn(len(live))]
			tx.SetNodeProp(graph.NodeID(id), followers, p.followersValue())
		}
		if err := tx.Commit(); (err != nil) != (round == 1) {
			t.Fatalf("commit %d after arming the crash: %v", round, err)
		}
	}
	p.fs.Crash()
	p.open()
	p.check("WAL replay")
}
