package twitter_test

import (
	"slices"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/twitter"
)

// The tests in this file are slices of TestStoresAgree's matrix, each
// on the graph, columns, steps and queries one cross-store property
// needs, so that property fails under its own name. They share the
// harness's rows, reference, columns and coverage checks.

// agree requires every column cols names to answer rows as the
// reference does on s as it stands, adds what the columns reached to
// stats, and returns the reference.
func agree(t *testing.T, s *stores, cols []string, rows []row, stats map[string]pathStats) [][][]any {
	t.Helper()
	ref := reference(t, s, rows, stats)
	for _, c := range cells(t, s, func(name string) bool { return slices.Contains(cols, name) }) {
		got, err := runRows(c, rows, stats)
		if err != nil {
			t.Fatal(err)
		}
		requireAgree(t, c.name+" diverges from neo/faithful", rows, got, ref, c.only)
	}
	return ref
}

// rowsOf keeps the probe rows of the queries ids.
func rowsOf(s *stores, ids ...string) []row {
	return slices.DeleteFunc(probeRows(s.users), func(r row) bool { return !slices.Contains(ids, r.q.ID) })
}

// subtest checks the rows of the queries ids.
type subtest struct {
	name string
	ids  []string
}

// multiHop are Q3.1–Q6.1, the reads whose execution the profile selects.
var multiHop = []subtest{
	{"Q3.1-co-mentioned", []string{"Q3.1"}},
	{"Q3.2-co-occurring-hashtags", []string{"Q3.2"}},
	{"Q4.1-recommend-followees", []string{"Q4.1"}},
	{"Q4.2-recommend-followers", []string{"Q4.2"}},
	{"Q5.1-current-influence", []string{"Q5.1"}},
	{"Q5.2-potential-influence", []string{"Q5.2"}},
	{"Q6.1-shortest-path", []string{"Q6.1"}},
}

// engines are the columns in which the two engines agree on defaults.
var engines = []string{"neo/tuned", "spark/faithful", "spark/tuned"}

// profileCols are database db's profile and seam columns.
func profileCols(db string) []string {
	var cols []string
	for _, c := range columns {
		cols = append(cols, db+"/"+c.name)
	}
	return cols
}

// sweepProfiles checks, in a subtest label/query per multi-hop read,
// that database db returns the reference's rows in every profile
// column.
func sweepProfiles(t *testing.T, s *stores, label, db string, stats map[string]pathStats) {
	for _, st := range multiHop {
		t.Run(label+"/"+st.name, func(t *testing.T) { agree(t, s, profileCols(db), rowsOf(s, st.ids...), stats) })
	}
}

// hasID reports whether some row's first field is id.
func hasID(rows [][]any, id int64) bool {
	return slices.ContainsFunc(rows, func(r []any) bool { return r[0] == id })
}

// TestDifferentialWorkload: neo and spark agree on every read of the
// stream graph, and the Q4.1 ablation variants agree with its Cypher.
func TestDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, sum := bulkStores(t, smallCfg(), neoConfigs[:1])
	if sum.Follows == 0 || sum.Mentions == 0 || sum.Tags == 0 {
		t.Fatalf("degenerate dataset: %+v", sum)
	}
	variants := []string{"neo/method-a", "neo/method-c", "neo/traversal", "spark/traversal"}
	for _, st := range []struct {
		subtest
		cols []string
	}{
		{subtest{"Q1.1-select", []string{"Q1.1"}}, engines},
		{subtest{"Q2.1-followees", []string{"Q2.1"}}, engines},
		{subtest{"Q2.2-tweets-of-followees", []string{"Q2.2"}}, engines},
		{subtest{"Q2.3-hashtags-of-followees", []string{"Q2.3"}}, engines},
		{multiHop[0], engines},
		{multiHop[1], engines},
		{multiHop[2], engines},
		{subtest{"Q4.1-methods-agree", []string{"Q4.1"}}, variants},
		{subtest{"Q4.2-recommend-followers-of-followees", []string{"Q4.2"}}, engines},
		{subtest{"Q5-influence", []string{"Q5.1", "Q5.2"}}, engines},
		{multiHop[6], engines},
	} {
		t.Run(st.name, func(t *testing.T) { agree(t, s, st.cols, rowsOf(s, st.ids...), map[string]pathStats{}) })
	}
}

// TestUpdateWorkloadBothEngines: after U1–U3 the engines agree on
// every read, and the reads see the writes.
func TestUpdateWorkloadBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:1])
	for _, st := range steps(s)[1:4] { // U1–U3
		apply(t, s, st)
	}
	// U2 has user 1 follow newUID; U3 has newUID, no follower of user 1,
	// mention user 1.
	q52, _ := twitter.LookupQuery("influence_potential")
	rows := append(probeRows(s.users), row{q52, twitter.Params{"uid": int64(1), "n": int64(1 << 20)}})
	ref := agree(t, s, engines, rows, map[string]pathStats{})
	for i, r := range rows {
		if r.p["uid"] == int64(1) && (r.q.ID == "Q2.1" || r.q.ID == "Q5.2" && r.p["n"] != nil) && !hasID(ref[i], newUID) {
			t.Errorf("%v: %d missing after U2 and U3: %v", r, newUID, ref[i])
		}
	}
}

// TestRandomGraphEquivalence: the engines agree on every read of
// random multigraphs written through their update paths.
func TestRandomGraphEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many databases")
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run("", func(t *testing.T) {
			s := randomStores(t, seed)
			agree(t, s, engines, probeRows(s.users), map[string]pathStats{})
		})
	}
}

// TestWorkerCountDeterminism: every multi-hop read returns the
// reference's rows under both profiles and both 8-shard seam paths,
// on both engines, and the sweep reaches what checkCoverage requires.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:1])
	stats := map[string]pathStats{}
	sweepProfiles(t, s, "neo", "neo", stats)
	sweepProfiles(t, s, "sparksee", "spark", stats)
	checkCoverage(t, "stream", s, probeRows(s.users), stats)
}

// TestWorkersOnSmallCache: the same sweep on a 16-page cache per store
// file, where 8 shards each hold a page of a file pinned at once.
func TestWorkersOnSmallCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), []neoConfig{neoConfigs[0], neoConfigs[2]})
	stats := map[string]pathStats{}
	sweepProfiles(t, s, "neo", "neo-16pages", stats)
	checkCoverage(t, "stream", s, probeRows(s.users), stats)
}

// TestProfiles: Tuned runs the matrix path on both engines; Faithful
// never does, and runs each neo call as one Cypher statement.
func TestProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:1])
	stats := map[string]pathStats{}
	agree(t, s, engines, rowsOf(s, "Q3.1", "Q3.2", "Q4.1", "Q4.2", "Q5.1", "Q5.2", "Q6.1"), stats)
	for _, name := range []string{"neo/tuned", "spark/tuned"} {
		if stats[name].matrix == 0 {
			t.Errorf("%s ran no matrix hop", name)
		}
	}
	checkCoverage(t, "stream", s, probeRows(s.users), stats)
}

// TestExecMethodDifferential: the sweep on the dense graph, where
// Tuned's own density gate runs both paths.
func TestExecMethodDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, denseCfg(), neoConfigs[:1])
	stats := map[string]pathStats{}
	sweepProfiles(t, s, "neo", "neo", stats)
	sweepProfiles(t, s, "sparksee", "spark", stats)
	checkCoverage(t, "dense", s, probeRows(s.users), stats)
}

// TestDenseNodesDifferential: neo with every node on dense relationship
// groups returns the reference's rows, before and after U1 and U2.
func TestDenseNodesDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:2])
	cols := []string{"neo-dense2/faithful", "neo-dense2/tuned"}
	agree(t, s, cols, probeRows(s.users), map[string]pathStats{})
	for _, st := range steps(s)[1:3] { // U1, U2
		apply(t, s, st)
	}
	agree(t, s, cols, probeRows(s.users), map[string]pathStats{})
}

// TestCompressionDifferential: spark loaded from its run-compressed
// image returns the reference's rows in every profile column, and its
// bitmaps hold run containers its gauges count.
func TestCompressionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:1])
	s.addImage(t)
	stats := map[string]pathStats{}
	cols := append(profileCols("neo"), profileCols("spark-image")...)
	for _, st := range append([]subtest{{"Q1.1-select", []string{"Q1.1"}}, {"Q2.1-followees", []string{"Q2.1"}}}, multiHop...) {
		t.Run(st.name, func(t *testing.T) { agree(t, s, cols, rowsOf(s, st.ids...), stats) })
	}
	checkCoverage(t, "stream", s, probeRows(s.users), stats)
}

// TestStreamReplayKeepsEnginesInSync: after 300 stream events the
// engines agree on every read, and on the users the stream added.
func TestStreamReplayKeepsEnginesInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	s, _ := bulkStores(t, smallCfg(), neoConfigs[:1])
	events := s.stream.Take(300)
	apply(t, s, step{"replay", func(w twitter.UpdateStore) error { _, err := twitter.ApplyAll(w, events); return err }})
	rows := probeRows(s.users)
	q21, _ := twitter.LookupQuery("followees")
	for _, ev := range events {
		if ev.Kind == gen.EventNewUser {
			rows = append(rows, row{q21, twitter.Params{"uid": ev.UID}})
		}
	}
	agree(t, s, engines, rows, map[string]pathStats{})
}
