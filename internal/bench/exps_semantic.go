package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"twigraph/internal/neodb"
	"twigraph/internal/twitter"
)

// runSemantic measures the paper's §5 future-work idea: a
// semantic-aware storage layout. The importer's default layout places
// each relationship type's records on contiguous pages (semantic
// partitioning); the interleaved variant scatters types across pages
// (the type-blind strategy the paper says the 2015 systems used). The
// same cold-cache traversal then costs more page faults on the blind
// layout.
func runSemantic(e *Env, w io.Writer) error {
	csvDir, _, err := e.Dataset()
	if err != nil {
		return err
	}

	build := func(name string, interleaved bool) (*twitter.NeoStore, error) {
		db, err := neodb.Open(filepath.Join(e.WorkDir, "semantic-"+name), neodb.Config{
			CachePages: 8192, DenseThreshold: neodb.Neo4jDenseThreshold,
		})
		if err != nil {
			return nil, err
		}
		imp := db.NewImporter(0, nil)
		imp.SetInterleaved(interleaved)
		nodes, edges := neodb.ImportDirLayout(csvDir)
		if _, err := imp.Run(nodes, edges); err != nil {
			db.Close()
			return nil, err
		}
		return twitter.NewNeoStore(db), nil
	}

	partitioned, err := build("partitioned", false)
	if err != nil {
		return err
	}
	defer partitioned.Close()
	blind, err := build("interleaved", true)
	if err != nil {
		return err
	}
	defer blind.Close()

	// Cold-cache traversal sweep: Q2.2 walks follows then posts chains;
	// with type-partitioned records each hop's page holds mostly
	// relevant records.
	users := make([]int64, 0, 30)
	for i := 0; i < 30; i++ {
		users = append(users, int64(i*(e.Cfg.Users/30))+1)
	}
	measure := func(key string, s *twitter.NeoStore) (time.Duration, uint64, error) {
		var rounds []time.Duration
		var faults uint64
		for r := 0; r < 5; r++ {
			if err := s.DB().CoolCaches(); err != nil {
				return 0, 0, err
			}
			faultsBefore := cacheFaults(s)
			d, err := timeInto(e.Hist("semantic/"+key), func() error {
				for _, uid := range users {
					if _, err := s.TweetsOfFollowees(uid); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			rounds = append(rounds, d)
			faults = cacheFaults(s) - faultsBefore
		}
		return medianDuration(rounds), faults, nil
	}
	t := newTable(w, "layout", "median cold sweep (30 users)", "page faults")
	for _, v := range []struct {
		key, name string
		store     *twitter.NeoStore
	}{
		{"partitioned", "type-partitioned (semantic-aware)", partitioned},
		{"interleaved", "interleaved (type-blind)", blind},
	} {
		elapsed, faults, err := measure(v.key, v.store)
		if err != nil {
			return err
		}
		t.rowf(v.name, elapsed, faults)
	}
	t.flush()
	fmt.Fprintln(w, "\nSame graph, same queries; only the physical placement of relationship")
	fmt.Fprintln(w, "records differs. Partitioning records by relationship type — knowing the")
	fmt.Fprintln(w, "queries traverse one type at a time — cuts cold-cache page faults (the")
	fmt.Fprintln(w, "I/O a spinning disk pays for); at in-memory benchmark scale the wall-time")
	fmt.Fprintln(w, "difference stays within noise, so the fault column is the signal. The")
	fmt.Fprintln(w, "stronger form of the same idea is the dense-node experiment, where the")
	fmt.Fprintln(w, "per-type partitioning is per node and the win is unambiguous.")
	return nil
}

func cacheFaults(s *twitter.NeoStore) uint64 {
	// The relationship store dominates traversal faults; node and
	// property stores are identical across layouts.
	return s.DB().PageFaults()
}
