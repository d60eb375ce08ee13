package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"twigraph/internal/neodb"
	"twigraph/internal/twitter"
)

// runDenseNodes measures what the relationship groups buy: the same
// typed traversals from hub users on two otherwise identical
// record-store databases, one with Neo4j's dense threshold
// (neodb.Neo4jDenseThreshold, 50) and one with groups disabled
// (threshold beyond every degree). The import's "computing the dense
// nodes" step is what prepares these structures — the paper times it
// at roughly ten minutes at crawl scale.
func runDenseNodes(e *Env, w io.Writer) error {
	csvDir, _, err := e.Dataset()
	if err != nil {
		return err
	}
	build := func(name string, threshold int) (*twitter.NeoStore, time.Duration, error) {
		db, err := neodb.Open(filepath.Join(e.WorkDir, "dense-"+name), neodb.Config{
			CachePages: 8192, DenseThreshold: threshold,
		})
		if err != nil {
			return nil, 0, err
		}
		imp := db.NewImporter(0, nil)
		nodes, edges := neodb.ImportDirLayout(csvDir)
		rep, err := imp.Run(nodes, edges)
		if err != nil {
			db.Close()
			return nil, 0, err
		}
		return twitter.NewNeoStore(db), rep.DensePhase, nil
	}
	grouped, densePhase, err := build("on", neodb.Neo4jDenseThreshold)
	if err != nil {
		return err
	}
	defer grouped.Close()
	flat, _, err := build("off", 1<<30)
	if err != nil {
		return err
	}
	defer flat.Close()

	// Hubs: the highest-degree users, where groups matter.
	outDeg, err := e.OutDegree()
	if err != nil {
		return err
	}
	mentionDeg, err := e.MentionDegree()
	if err != nil {
		return err
	}
	totalDeg := map[int64]int{}
	for uid, d := range outDeg {
		totalDeg[uid] += d
	}
	for uid, d := range mentionDeg {
		totalDeg[uid] += d
	}
	hubs := e.sampleUsers(10, totalDeg)[:5]

	measure := func(key string, s *twitter.NeoStore, cold bool) (time.Duration, uint64, uint64, error) {
		var rounds []time.Duration
		var hits, faults uint64
		for r := 0; r < 5; r++ {
			if cold {
				if err := s.DB().CoolCaches(); err != nil {
					return 0, 0, 0, err
				}
			} else {
				for _, uid := range hubs { // warm-up
					if _, err := s.Followees(uid); err != nil {
						return 0, 0, 0, err
					}
				}
			}
			hitsBefore := s.DB().RecordFetches()
			faultsBefore := s.DB().PageFaults()
			d, err := timeInto(e.Hist("densenodes/"+key), func() error {
				for k := 0; k < 20; k++ {
					for _, uid := range hubs {
						// Typed 1-hop from a hub that also has many
						// mention edges: exactly where groups skip
						// unrelated records.
						if _, err := s.Followees(uid); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return 0, 0, 0, err
			}
			rounds = append(rounds, d)
			hits = s.DB().RecordFetches() - hitsBefore
			faults = s.DB().PageFaults() - faultsBefore
		}
		return medianDuration(rounds), hits, faults, nil
	}
	t := newTable(w, "engine", "cache", "median 100 hub traversals", "db hits", "page faults")
	for _, v := range []struct {
		key, name string
		store     *twitter.NeoStore
	}{
		{"grouped", "relationship groups (dense threshold 50)", grouped},
		{"flat", "single mixed chains (groups disabled)", flat},
	} {
		for _, cold := range []bool{true, false} {
			label := "warm"
			if cold {
				label = "cold"
			}
			elapsed, hits, faults, err := measure(v.key+"-"+label, v.store, cold)
			if err != nil {
				return err
			}
			t.rowf(v.name, label, elapsed, hits, faults)
		}
	}
	t.flush()
	fmt.Fprintf(w, "\nDense-node preparation during import took %v (the paper's ~10 min\n", densePhase)
	fmt.Fprintln(w, "intermediate step at crawl scale). Typed traversals from hubs then skip")
	fmt.Fprintln(w, "every unrelated relationship record instead of scanning the mixed chain.")
	return nil
}
