package twitter_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// TestCompressionDifferential is the run-container compression
// differential: the bulk-loaded sparkdb store, whose bitmaps hold run
// containers, must return byte-identical results to neodb, which holds
// no bitmaps, for every workload query under Faithful, Tuned and the
// seam's 8-shard matrix and navigational paths. Compression only
// changes how sets are stored, never what they contain. The v2 image's
// size against v1 is pinned by sparkdb's TestLegacyImageGolden.
func TestCompressionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds two databases")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.GenerateStream(smallCfg(), csvDir); err != nil {
		t.Fatal(err)
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { neoRes.Store.Close() })
	comp, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{
		ImagePath: filepath.Join(dir, "v2.img"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The compressed build must actually hold run containers.
	if st := comp.Store.DB().BitmapStats(); st.Runs == 0 {
		t.Fatalf("compressed build has no run containers: %+v", st)
	}

	queries := append([]probeQuery{
		{"Q1.1-select", func(s twitter.Store) (any, error) {
			var out [][]int64
			for _, th := range []int64{0, 1, 5, 20} {
				r, err := s.UsersWithFollowersOver(th)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"Q2.1-followees", func(s twitter.Store) (any, error) {
			var out [][]int64
			for _, uid := range probeUIDs {
				r, err := s.Followees(uid)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
	}, multiHopQueries...)

	stores := []struct {
		name string
		s    profileStore
	}{
		{"neo", neoRes.Store},
		{"spark-compressed", comp.Store},
	}
	stats := map[string]sweepStats{}
	for _, st := range stores {
		stats[st.name] = sweepStats{}
	}
	for qi, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			// Every store must agree with itself across the columns, and
			// the compressed sparkdb build must match neo.
			var base any
			for i, st := range stores {
				var acc sweepStats
				if qi >= len(queries)-len(multiHopQueries) {
					acc = stats[st.name]
				}
				got := sweep(t, st.s, q, acc)
				if i == 0 {
					base = got
				} else if !reflect.DeepEqual(got, base) {
					t.Fatalf("%s diverges from %s:\n base: %#v\n  got: %#v", st.name, stores[0].name, base, got)
				}
			}
		})
	}
	if !t.Failed() {
		for _, st := range stores {
			stats[st.name].check(t, st.name)
		}
	}

	// The compression gauges must be visible through the generic gauge
	// walk that `:stats` and /metrics render.
	seen := map[string]int64{}
	comp.Store.DB().Obs().EachGauge(func(name string, g *obs.Gauge) {
		seen[name] = g.Load()
	})
	for _, name := range []string{
		sparkdb.GBitmapArrayContainers,
		sparkdb.GBitmapRunContainers,
		sparkdb.GBitmapBitsetContainers,
		sparkdb.GBitmapMemBytes,
	} {
		if _, ok := seen[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	if seen[sparkdb.GBitmapRunContainers] == 0 {
		t.Errorf("gauge %s is zero on a compressed build", sparkdb.GBitmapRunContainers)
	}
}
