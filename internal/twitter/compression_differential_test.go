package twitter_test

import (
	"os"
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
// differential: both engines, with the sparkdb engine loaded twice —
// compressed (run containers, v2 image) and uncompressed (legacy
// representations, v1 image) — must return byte-identical results for
// every workload query under Faithful, Tuned and the seam's 8-shard
// matrix and navigational paths. Compression only changes how sets are
// stored, never what they contain.
func TestCompressionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential test builds three databases")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	if _, err := gen.Generate(smallCfg(), csvDir); err != nil {
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
	plain, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{
		ImagePath:     filepath.Join(dir, "v1.img"),
		NoCompression: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The compressed build must actually hold run containers, and its
	// image must be meaningfully smaller — the acceptance bar is 30%.
	if st := comp.Store.DB().BitmapStats(); st.Runs == 0 {
		t.Fatalf("compressed build has no run containers: %+v", st)
	}
	v2, err := os.Stat(filepath.Join(dir, "v2.img"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.Stat(filepath.Join(dir, "v1.img"))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Size() > v1.Size()*7/10 {
		t.Errorf("v2 image %d bytes, want <= 70%% of v1 (%d bytes)", v2.Size(), v1.Size())
	}
	// The legacy image still loads and serves queries.
	legacy, err := sparkdb.Load(filepath.Join(dir, "v1.img"))
	if err != nil {
		t.Fatalf("legacy v1 image load: %v", err)
	}
	legacyStore, err := twitter.NewSparkStore(legacy)
	if err != nil {
		t.Fatal(err)
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
		{"spark-plain", plain.Store},
		{"spark-compressed", comp.Store},
		{"spark-legacy-image", legacyStore},
	}
	stats := map[string]sweepStats{}
	for _, st := range stores {
		stats[st.name] = sweepStats{}
	}
	for qi, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			// Every store must agree with itself across the columns; every
			// sparkdb variant must then match the uncompressed build (the
			// neo engine is checked against sparkdb by
			// TestDifferentialWorkload).
			var sparkBase any
			for _, st := range stores {
				var acc sweepStats
				if qi >= len(queries)-len(multiHopQueries) {
					acc = stats[st.name]
				}
				got := sweep(t, st.s, q, acc)
				switch {
				case st.name == "spark-plain":
					sparkBase = got
				case st.name != "neo" && !reflect.DeepEqual(got, sparkBase):
					t.Fatalf("%s diverges from spark-plain:\n base: %#v\n  got: %#v", st.name, sparkBase, got)
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
