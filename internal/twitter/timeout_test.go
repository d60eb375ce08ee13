package twitter_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"twigraph/internal/leakcheck"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/sparkdb"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
)

// TestStoreQueryTimeout drives the graceful-degradation funnel both
// stores expose to twibench -timeout: with an unmeetable deadline every
// multi-hop query (Q3.1–Q6.1) and the traversal-framework variants
// abort with a context error on both engines,
// under both profiles and on both seam paths; each abort counts into
// queries_timed_out exactly once, and the store keeps answering once
// the bound is lifted. A subtest does the same for neodb's Q1.1 on a
// store large enough for Tuned to split its scan into morsels.
func TestStoreQueryTimeout(t *testing.T) {
	neo, spark, _ := buildBoth(t, smallCfg())

	type timeoutStore interface {
		profileStore
		SetQueryTimeout(time.Duration)
		RecommendFolloweesTraversal(uid int64, n int) ([]twitter.Counted, error)
	}
	calls := []struct {
		name string
		run  func(s timeoutStore) error
	}{
		{"Q3.1", func(s timeoutStore) error { _, err := s.CoMentionedUsers(1, 10); return err }},
		{"Q3.2", func(s timeoutStore) error { _, err := s.CoOccurringHashtags("topic1", 10); return err }},
		{"Q4.1", func(s timeoutStore) error { _, err := s.RecommendFollowees(1, 10); return err }},
		{"Q4.1-traversal", func(s timeoutStore) error { _, err := s.RecommendFolloweesTraversal(1, 10); return err }},
		{"Q4.2", func(s timeoutStore) error { _, err := s.RecommendFollowersOfFollowees(1, 10); return err }},
		{"Q5.1", func(s timeoutStore) error { _, err := s.CurrentInfluence(1, 10); return err }},
		{"Q5.2", func(s timeoutStore) error { _, err := s.PotentialInfluence(1, 10); return err }},
		{"Q6.1", func(s timeoutStore) error { _, _, err := s.ShortestPathLength(1, 40, 4); return err }},
	}
	// A declarative point read aborts too.
	neo.SetQueryTimeout(time.Nanosecond)
	if _, err := neo.Followees(1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("neo query under 1ns deadline: %v", err)
	}
	neo.SetQueryTimeout(0)

	timedOut := map[string]string{"neo": neodb.CQueriesTimedOut, "sparksee": sparkdb.CQueriesTimedOut}
	for _, s := range []timeoutStore{neo, spark} {
		counter := func() *obs.Counter { return s.Obs().Counter(timedOut[s.Name()]) }
		for _, c := range columns {
			c.set(s)
			s.SetQueryTimeout(time.Nanosecond)
			for _, call := range calls {
				before := counter().Load()
				if err := call.run(s); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s %s %s under 1ns deadline: %v", s.Name(), c.name, call.name, err)
				}
				if got := counter().Load() - before; got != 1 {
					t.Errorf("%s %s %s: queries_timed_out moved by %d, want 1", s.Name(), c.name, call.name, got)
				}
			}
			s.SetQueryTimeout(0)
			for _, call := range calls {
				if err := call.run(s); err != nil {
					t.Errorf("%s %s %s after removing the bound: %v", s.Name(), c.name, call.name, err)
				}
			}
		}
		s.SetProfile(spmat.Tuned)
	}

	t.Run("Q1.1 in morsels", testSelectionTimeout)
}

// pollDeadline is a context whose Err reports a deadline from its n-th
// poll on, so an abort lands at a chosen point inside a query instead
// of before it starts. Morsel workers poll it concurrently.
type pollDeadline struct {
	context.Context
	n atomic.Int64
}

func newPollDeadline(n int64) *pollDeadline {
	c := &pollDeadline{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *pollDeadline) Err() error {
	if c.n.Add(-1) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// testSelectionTimeout aborts neodb's Q1.1 on a store with more than
// four batches of users, where Tuned runs the label scan and the
// projection as morsels on forked workers: before the query starts, in
// the middle of the scan and in the middle of the projection. Every
// abort counts into queries_timed_out exactly once, leaves no page
// pinned and no goroutine behind, and the next unbounded call returns
// every user. (sparkdb answers Q1.1 with one Select, which polls no
// context.)
func testSelectionTimeout(t *testing.T) {
	leakcheck.Check(t)
	cfg := smallCfg()
	cfg.Users, cfg.AvgFollowees = 4500, 2
	neo, _, _ := buildBoth(t, cfg)
	q11 := func() error {
		ids, err := neo.UsersWithFollowersOver(-1)
		if err == nil && len(ids) != cfg.Users {
			err = fmt.Errorf("%d users, want %d", len(ids), cfg.Users)
		}
		return err
	}
	// The executor polls once before the scan, once per 1024 users in
	// the scan, then once per 1024 projected rows.
	bounds := []struct {
		name string
		set  func()
	}{
		{"1ns deadline", func() { neo.SetQueryTimeout(time.Nanosecond) }},
		{"deadline mid-scan", func() { neo.SetBaseContext(newPollDeadline(3)) }},
		{"deadline mid-projection", func() { neo.SetBaseContext(newPollDeadline(8)) }},
	}
	timedOut := neo.Obs().Counter(neodb.CQueriesTimedOut)
	shards := neo.Obs().Counter(par.CShards)
	for _, p := range []spmat.Profile{spmat.Faithful, spmat.Tuned} {
		neo.SetProfile(p)
		for _, b := range bounds {
			b.set()
			before := timedOut.Load()
			if err := q11(); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s %s: %v", p, b.name, err)
			}
			if got := timedOut.Load() - before; got != 1 {
				t.Errorf("%s %s: queries_timed_out moved by %d, want 1", p, b.name, got)
			}
			if n := neo.DB().PinnedPages(); n != 0 {
				t.Errorf("%s %s: %d pages still pinned", p, b.name, n)
			}
			neo.SetQueryTimeout(0)
			neo.SetBaseContext(nil)
			forks := shards.Load()
			if err := q11(); err != nil {
				t.Errorf("%s after %s: %v", p, b.name, err)
			}
			if forked := shards.Load() > forks; forked != (p == spmat.Tuned && runtime.GOMAXPROCS(0) > 1) {
				t.Errorf("%s: scan forked workers: %v", p, forked)
			}
		}
	}
}
