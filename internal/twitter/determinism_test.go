package twitter_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
)

// profileStore is a store whose profile can be set and whose
// multi-hop paths the test seam can pin.
type profileStore interface {
	twitter.Store
	SetProfile(spmat.Profile)
	ForcePath(matrix bool)
	Obs() *obs.Registry
}

// column is one execution configuration a sweep runs every probe
// under. The two profiles are what callers can select; the two seam
// columns pin the algebraic and the navigational path with 8 shards,
// since small test graphs send Tuned to the matrix path almost every
// time.
type column struct {
	name    string
	sharded bool // pins 8 shards
	set     func(profileStore)
}

var columns = []column{
	{"faithful", false, func(s profileStore) { s.SetProfile(spmat.Faithful) }},
	{"tuned", false, func(s profileStore) { s.SetProfile(spmat.Tuned) }},
	{"matrix-8", true, func(s profileStore) { s.ForcePath(true) }},
	{"nav-8", true, func(s profileStore) { s.ForcePath(false) }},
}

// probeQuery runs one workload query over its probes and returns
// everything observed, so a comparison covers row order, counts and
// found/not-found.
type probeQuery struct {
	name string
	run  func(s twitter.Store) (any, error)
}

var (
	probeUIDs  = []int64{1, 2, 3, 5, 17, 42, 100, 250, 299}
	probeTags  = []string{"topic1", "topic2", "topic3", "topic10", "missing"}
	probePairs = [][2]int64{{1, 2}, {1, 50}, {5, 250}, {17, 42}, {100, 299}, {3, 3}}
)

func countedProbe(name string, q func(s twitter.Store, uid int64) ([]twitter.Counted, error)) probeQuery {
	return probeQuery{name, func(s twitter.Store) (any, error) {
		var out [][]twitter.Counted
		for _, uid := range probeUIDs {
			r, err := q(s, uid)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}}
}

// multiHopQueries are Q3.1–Q6.1, the queries whose execution the
// profile selects.
var multiHopQueries = []probeQuery{
	countedProbe("Q3.1-co-mentioned", func(s twitter.Store, uid int64) ([]twitter.Counted, error) {
		return s.CoMentionedUsers(uid, 10)
	}),
	{"Q3.2-co-occurring-hashtags", func(s twitter.Store) (any, error) {
		var out [][]twitter.CountedTag
		for _, tag := range probeTags {
			r, err := s.CoOccurringHashtags(tag, 10)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}},
	countedProbe("Q4.1-recommend-followees", func(s twitter.Store, uid int64) ([]twitter.Counted, error) {
		return s.RecommendFollowees(uid, 10)
	}),
	countedProbe("Q4.2-recommend-followers", func(s twitter.Store, uid int64) ([]twitter.Counted, error) {
		return s.RecommendFollowersOfFollowees(uid, 10)
	}),
	countedProbe("Q5.1-current-influence", func(s twitter.Store, uid int64) ([]twitter.Counted, error) {
		return s.CurrentInfluence(uid, 10)
	}),
	countedProbe("Q5.2-potential-influence", func(s twitter.Store, uid int64) ([]twitter.Counted, error) {
		return s.PotentialInfluence(uid, 10)
	}),
	{"Q6.1-shortest-path", func(s twitter.Store) (any, error) {
		type res struct {
			Len   int
			Found bool
		}
		var out []res
		for _, p := range probePairs {
			l, ok, err := s.ShortestPathLength(p[0], p[1], 3)
			if err != nil {
				return nil, err
			}
			out = append(out, res{l, ok})
		}
		return out, nil
	}},
}

// sweepStats accumulates, per column, how much of each execution path
// a sweep reached.
type sweepStats map[string]*struct{ matrix, nav, shards, calls uint64 }

// sweep runs q under every column on s, requires every column to
// return Faithful's result byte for byte, and returns that result. A
// non-nil stats accumulates the path counters per column. s is left on
// the Tuned default.
func sweep(t *testing.T, s profileStore, q probeQuery, stats sweepStats) any {
	t.Helper()
	defer s.SetProfile(spmat.Tuned)
	reg := s.Obs()
	counters := func() [4]uint64 {
		return [4]uint64{
			reg.Counter(spmat.CMatrixHops).Load(),
			reg.Counter(spmat.CNavHops).Load(),
			reg.Counter(par.CShards).Load(),
			reg.Histogram(twitter.QueryLatencyHist).Count(),
		}
	}
	var base any
	for i, c := range columns {
		c.set(s)
		before := counters()
		got, err := q.run(s)
		if err != nil {
			t.Fatalf("%s %s: %v", s.Name(), c.name, err)
		}
		if i == 0 {
			base = got
		} else if !reflect.DeepEqual(got, base) {
			t.Fatalf("%s %s diverges from faithful:\n faithful: %v\n %s: %v", s.Name(), c.name, base, c.name, got)
		}
		after := counters()
		if stats == nil {
			continue
		}
		st := stats[c.name]
		if st == nil {
			st = &struct{ matrix, nav, shards, calls uint64 }{}
			stats[c.name] = st
		}
		st.matrix += after[0] - before[0]
		st.nav += after[1] - before[1]
		st.shards += after[2] - before[2]
		st.calls += after[3] - before[3]
	}
	return base
}

// check asserts the sweep covered what it claims to: both gated paths
// ran, Faithful never ran the matrix path, and every 8-shard column
// forked more than one shard per store call on average.
func (stats sweepStats) check(t *testing.T, label string) {
	t.Helper()
	var matrix, nav uint64
	for _, c := range columns {
		st := stats[c.name]
		matrix += st.matrix
		nav += st.nav
		if c.sharded && st.shards <= st.calls {
			t.Errorf("%s %s: %d shards over %d calls, want more than one per call", label, c.name, st.shards, st.calls)
		}
	}
	if matrix == 0 || nav == 0 {
		t.Errorf("%s: sweep ran %d matrix and %d nav hops, want both > 0", label, matrix, nav)
	}
	if m := stats["faithful"].matrix; m != 0 {
		t.Errorf("%s: faithful ran %d matrix hops, want 0", label, m)
	}
}

// checkProfiles sweeps every multi-hop query over every column on s
// and returns what the sweep reached.
func checkProfiles(t *testing.T, s profileStore) sweepStats {
	t.Helper()
	stats := sweepStats{}
	for _, q := range multiHopQueries {
		t.Run(fmt.Sprintf("%s/%s", s.Name(), q.name), func(t *testing.T) {
			sweep(t, s, q, stats)
		})
	}
	if !t.Failed() {
		stats.check(t, s.Name())
	}
	return stats
}

// TestWorkerCountDeterminism pins the execution contract: every
// multi-hop query returns byte-identical results under Faithful, Tuned
// and the seam's 8-shard matrix and navigational paths, on both
// engines. On the Neo4j-analog this doubles as a differential between
// the Cypher plans (Faithful), their sharded imperative restatements
// and the spmat kernels.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test builds two databases")
	}
	neo, spark, _ := buildBoth(t, smallCfg())
	for _, s := range []profileStore{neo, spark} {
		checkProfiles(t, s)
	}
	requireTieAtCut(t, neo)
}

// requireTieAtCut requires some Q4.2 probe to anchor a hub with more
// than 10 candidates tied at the count of the 10th, so the sweeps'
// LIMIT 10 cuts through a tie that every column must break on uid
// alike.
func requireTieAtCut(t *testing.T, s twitter.Store) {
	t.Helper()
	for _, uid := range probeUIDs {
		all, err := s.RecommendFollowersOfFollowees(uid, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		tied := 0
		for _, c := range all {
			if len(all) > 10 && c.Count == all[9].Count {
				tied++
			}
		}
		if tied > 10 {
			return
		}
	}
	t.Errorf("no Q4.2 probe of %v has more than 10 candidates tied at the 10th count", probeUIDs)
}

// TestReadersOnFourPages runs Tuned Q3.2, Q4.1 and Q4.2 with 4 workers
// on a 4-page cache per store file, on both gated paths and from three
// stores at once, and requires Faithful's rows and every Reader given
// back: afterwards exactly the 4 frames can be borrowed again, and the
// database closes without a Reader outstanding.
func TestReadersOnFourPages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.GenerateStream(smallCfg(), csvDir); err != nil {
		t.Fatal(err)
	}
	res, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := res.Store.Close(); err != nil {
			t.Error(err)
		}
	})
	db := res.Store.DB()
	queries := []probeQuery{multiHopQueries[1], multiHopQueries[2], multiHopQueries[3]}
	want := make([]any, len(queries))
	res.Store.SetProfile(spmat.Faithful)
	for i, q := range queries {
		if want[i], err = q.run(res.Store); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range []struct {
		name string
		set  func(s *twitter.NeoStore)
	}{
		{"tuned", func(s *twitter.NeoStore) { s.SetProfile(spmat.Tuned) }},
		{"matrix", func(s *twitter.NeoStore) { s.ForcePath(true) }},
		{"nav", func(s *twitter.NeoStore) { s.ForcePath(false) }},
	} {
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			s := twitter.NewNeoStore(db)
			cfg.set(s)
			s.SetWorkers(4)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range queries {
					got, err := q.run(s)
					if err != nil {
						t.Errorf("%s %s: %v", cfg.name, q.name, err)
					} else if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s %s diverges from faithful:\n faithful: %v\n got: %v", cfg.name, q.name, want[i], got)
					}
				}
			}()
		}
		wg.Wait()
		if n := db.BorrowReaders(5); n != 4 {
			t.Errorf("%s: after the queries %d of 4 Readers can be borrowed", cfg.name, n)
		} else {
			for range n {
				db.ReturnReader()
			}
		}
	}
}

// TestWorkersOnSmallCache runs the same sweep on the neo engine with a
// 16-page cache per store file. Every shard reads through its own
// Reader and so holds at most one page of each file pinned at a time,
// with 8 shards at once.
func TestWorkersOnSmallCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.GenerateStream(smallCfg(), csvDir); err != nil {
		t.Fatal(err)
	}
	res, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Store.Close() })
	checkProfiles(t, res.Store)
}

// TestProfiles checks what each profile runs: Tuned is the default and
// runs the matrix path; Faithful never does, and runs neodb's Q3–Q6
// through Cypher.
func TestProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	neo, spark, _ := buildBoth(t, smallCfg())
	matrixHops := func(s profileStore) uint64 { return s.Obs().Counter(spmat.CMatrixHops).Load() }
	run := func(s profileStore) {
		for _, q := range multiHopQueries {
			if _, err := q.run(s); err != nil {
				t.Fatalf("%s %s: %v", s.Name(), q.name, err)
			}
		}
	}
	for _, s := range []profileStore{neo, spark} {
		before := matrixHops(s)
		run(s)
		if matrixHops(s) == before {
			t.Errorf("%s: default profile ran no matrix hop", s.Name())
		}
		s.SetProfile(spmat.Faithful)
		before = matrixHops(s)
		run(s)
		if got := matrixHops(s) - before; got != 0 {
			t.Errorf("%s: faithful ran %d matrix hops", s.Name(), got)
		}
		s.SetProfile(spmat.Tuned)
		before = matrixHops(s)
		run(s)
		if matrixHops(s) == before {
			t.Errorf("%s: tuned ran no matrix hop", s.Name())
		}
	}

	// Faithful runs each neodb multi-hop call as one Cypher statement:
	// one plan-cache lookup per call. (The statement's execution is
	// recorded in the engine's query statistics under the store method's
	// fingerprint, which owns the accounting.)
	lookups := func() uint64 {
		hits, misses := neo.Engine().CacheStats()
		return hits + misses
	}
	calls := func() uint64 { return neo.Obs().Histogram(twitter.QueryLatencyHist).Count() }
	neo.SetProfile(spmat.Faithful)
	defer neo.SetProfile(spmat.Tuned)
	l0, c0 := lookups(), calls()
	run(neo)
	if l, c := lookups()-l0, calls()-c0; l != c || c == 0 {
		t.Errorf("faithful neodb: %d plan-cache lookups over %d calls, want one per call", l, c)
	}
}
