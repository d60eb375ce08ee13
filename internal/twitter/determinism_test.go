package twitter_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/twitter"
)

// workerStore is a store whose multi-hop worker count can be toggled.
type workerStore interface {
	twitter.Store
	SetWorkers(int)
	Workers() int
}

// TestWorkerCountDeterminism pins the parallel-execution contract: every
// workload query returns byte-identical results at Workers=1 and
// Workers=8 on both engines. On the Neo4j-analog this doubles as a
// differential between the Cypher plans (Workers=1) and their sharded
// imperative restatements (Workers>1).
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test builds two databases")
	}
	neo, spark, _ := buildBoth(t, smallCfg())
	for _, s := range []workerStore{neo, spark} {
		checkWorkerCounts(t, s, 8)
	}
}

// TestWorkersOnSmallCache runs the sharded neo paths with more workers
// than CPUs on a 16-page cache per store file. Every shard reads through
// its own Reader and so holds at most one page of each file pinned at a
// time; the results must match the sequential paths.
func TestWorkersOnSmallCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.Generate(smallCfg(), csvDir); err != nil {
		t.Fatal(err)
	}
	res, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Store.Close() })
	checkWorkerCounts(t, res.Store, 4)
}

// checkWorkerCounts runs every multi-hop workload query at Workers=1
// and at Workers=workers and requires identical results.
func checkWorkerCounts(t *testing.T, s workerStore, workers int) {
	t.Helper()
	probes := []int64{1, 2, 3, 5, 17, 42, 100, 250, 299}
	tags := []string{"topic1", "topic2", "topic3", "topic10", "missing"}
	pairs := [][2]int64{{1, 2}, {1, 50}, {5, 250}, {17, 42}, {100, 299}, {3, 3}}

	// Each query sweeps its probes and returns everything observed, so
	// the comparison covers row order, counts, and found/not-found.
	queries := []struct {
		name string
		run  func(s twitter.Store) (any, error)
	}{
		{"Q3.1-co-mentioned", func(s twitter.Store) (any, error) {
			var out [][]twitter.Counted
			for _, uid := range probes {
				r, err := s.CoMentionedUsers(uid, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q3.2-co-occurring-hashtags", func(s twitter.Store) (any, error) {
			var out [][]twitter.CountedTag
			for _, tag := range tags {
				r, err := s.CoOccurringHashtags(tag, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q4.1-recommend-followees", func(s twitter.Store) (any, error) {
			var out [][]twitter.Counted
			for _, uid := range probes {
				r, err := s.RecommendFollowees(uid, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q4.2-recommend-followers", func(s twitter.Store) (any, error) {
			var out [][]twitter.Counted
			for _, uid := range probes {
				r, err := s.RecommendFollowersOfFollowees(uid, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q5.1-current-influence", func(s twitter.Store) (any, error) {
			var out [][]twitter.Counted
			for _, uid := range probes {
				r, err := s.CurrentInfluence(uid, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q5.2-potential-influence", func(s twitter.Store) (any, error) {
			var out [][]twitter.Counted
			for _, uid := range probes {
				r, err := s.PotentialInfluence(uid, 10)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q6.1-shortest-path", func(s twitter.Store) (any, error) {
			type res struct {
				Len   int
				Found bool
			}
			var out []res
			for _, p := range pairs {
				l, ok, err := s.ShortestPathLength(p[0], p[1], 3)
				if err != nil {
					return nil, err
				}
				out = append(out, res{l, ok})
			}
			return out, nil
		}},
	}

	for _, q := range queries {
		t.Run(fmt.Sprintf("%s/%s", s.Name(), q.name), func(t *testing.T) {
			s.SetWorkers(1)
			seq, err := q.run(s)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			s.SetWorkers(workers)
			par, err := q.run(s)
			s.SetWorkers(0) // back to the default for other tests
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers=1 vs workers=%d diverge:\n w1: %v\n w%d: %v", workers, seq, workers, par)
			}
		})
	}
}

// TestSetWorkersClamps checks the knob's edge cases: non-positive means
// the GOMAXPROCS default, one selects the sequential paths.
func TestSetWorkersClamps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	cfg := smallCfg()
	cfg.Users = 60
	neo, spark, _ := buildBoth(t, cfg)
	for _, s := range []workerStore{neo, spark} {
		if w := s.Workers(); w < 1 {
			t.Errorf("%s: default workers %d < 1", s.Name(), w)
		}
		s.SetWorkers(1)
		if w := s.Workers(); w != 1 {
			t.Errorf("%s: SetWorkers(1) -> %d", s.Name(), w)
		}
		s.SetWorkers(-3)
		if w := s.Workers(); w < 1 {
			t.Errorf("%s: SetWorkers(-3) -> %d", s.Name(), w)
		}
	}
}
