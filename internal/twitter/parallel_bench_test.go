package twitter_test

import (
	"fmt"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
)

// benchCfg is larger than the differential config so the frontiers are
// wide enough for sharding and the density gate to matter.
func benchCfg() gen.Config {
	cfg := gen.Default()
	cfg.Users = 1500
	cfg.AvgFollowees = 12
	cfg.Hashtags = 60
	cfg.MentionsPer = 0.9
	cfg.TagsPer = 0.6
	return cfg
}

var benchProbes = []int64{1, 2, 3, 5, 17, 42, 100, 700, 1499}

// benchWorkloads compares each multi-hop query under Faithful and
// Tuned on both engines; one op sweeps all probes.
func benchWorkloads(b *testing.B, sweep func(s twitter.Store) error) {
	neo, spark, _ := buildBoth(b, benchCfg())
	for _, s := range []profileStore{neo, spark} {
		for _, p := range []spmat.Profile{spmat.Faithful, spmat.Tuned} {
			b.Run(fmt.Sprintf("%s/%v", s.Name(), p), func(b *testing.B) {
				s.SetProfile(p)
				defer s.SetProfile(spmat.Tuned)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sweep(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ11UsersOver runs Q1.1, which Tuned prunes with the
// :user(followers) index load.BuildNeo creates, at a few thresholds.
func BenchmarkQ11UsersOver(b *testing.B) {
	benchWorkloads(b, func(s twitter.Store) error {
		for _, th := range []int64{0, 5, 20, 50} {
			if _, err := s.UsersWithFollowersOver(th); err != nil {
				return err
			}
		}
		return nil
	})
}

// benchTopN runs a top-n query over every probe with no budget.
func benchTopN(b *testing.B, q func(twitter.Store, int64, int) ([]twitter.Counted, error)) {
	benchWorkloads(b, func(s twitter.Store) error {
		for _, uid := range benchProbes {
			if _, err := q(s, uid, 1<<30); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkQ31CoMentioned(b *testing.B)        { benchTopN(b, twitter.Store.CoMentionedUsers) }
func BenchmarkQ41RecommendFollowees(b *testing.B) { benchTopN(b, twitter.Store.RecommendFollowees) }
func BenchmarkQ42RecommendFollowers(b *testing.B) {
	benchTopN(b, twitter.Store.RecommendFollowersOfFollowees)
}
func BenchmarkQ52PotentialInfluence(b *testing.B) { benchTopN(b, twitter.Store.PotentialInfluence) }

func BenchmarkQ61ShortestPath(b *testing.B) {
	pairs := [][2]int64{{1, 750}, {2, 1400}, {5, 1000}, {17, 1200}}
	benchWorkloads(b, func(s twitter.Store) error {
		for _, p := range pairs {
			if _, _, err := s.ShortestPathLength(p[0], p[1], 4); err != nil {
				return err
			}
		}
		return nil
	})
}
