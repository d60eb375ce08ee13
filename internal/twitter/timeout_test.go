package twitter_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"twigraph/internal/neodb"
	"twigraph/internal/obs"
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
// the bound is lifted.
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
}
