package bench

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"twigraph/internal/core"
	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// scaleFactors is the sweep grid: SF 1.0 is the 100k-user reference
// dataset (the paper's 24.8M-user graph scaled to commodity CI), each
// step roughly 3x the previous. Env.SFMax truncates the sweep; the
// default stops at 0.3 so `-exp all` stays inside a laptop budget, and
// `-sfmax 1` runs the full grid.
var scaleFactors = []float64{0.01, 0.03, 0.1, 0.3, 1.0}

// scaleRefUsers is the SF=1.0 user count.
const scaleRefUsers = 100_000

// scaleQueryReps is how many times each workload query runs per SF, so
// the per-SF histograms carry a distribution rather than one sample.
const scaleQueryReps = 3

// scaleConfig derives the generator config for one scale factor from
// the session seed: the user count scales linearly, the hashtag
// vocabulary with it (floored so tiny SFs still exercise Q3.2), and the
// per-tweet shape knobs stay fixed so edge counts scale with users.
func scaleConfig(seed int64, sf float64) gen.Config {
	cfg := gen.Default()
	cfg.Seed = seed
	cfg.Users = int(sf * scaleRefUsers)
	cfg.Hashtags = cfg.Users / 20
	if cfg.Hashtags < 50 {
		cfg.Hashtags = 50
	}
	cfg.MentionsPer = 0.9
	cfg.TagsPer = 0.6
	cfg.Retweets = true
	cfg.RetweetsPer = 0.25
	return cfg
}

// runScale sweeps the dataset scale factor and measures, per SF: the
// streaming generator's wall time, both engines' ingest throughput,
// the on-disk footprint (page store bytes, image bytes), the sparksee
// image's container mix after run compression, and the Table 2 query
// latencies. Each SF builds its own stores from scratch — the shared
// Env builds are one fixed-size dataset — and releases them before the
// next so peak memory stays one-SF-sized. Latency series land in the
// snapshot as "scale/sf<sf>/<engine>/<query>", which is what the CI
// gate diffs.
func runScale(e *Env, w io.Writer) error {
	maxSF := e.SFMax
	if maxSF <= 0 {
		maxSF = 0.3
	}
	type sfRow struct {
		sf             float64
		users          int
		rows           int
		genD           time.Duration
		neoD, sparkD   time.Duration
		storeB, imageB int64
		stats          sparkdb.BitmapStats
		q              map[string]map[string]time.Duration // engine -> query -> median-ish sample
	}
	var rows []sfRow
	queryIDs := []string{}
	for _, spec := range core.Workload() {
		queryIDs = append(queryIDs, string(spec.ID))
	}

	for _, sf := range scaleFactors {
		if sf > maxSF {
			fmt.Fprintf(w, "(stopping at SF %g; run with -sfmax %g for the full sweep)\n\n", maxSF, scaleFactors[len(scaleFactors)-1])
			break
		}
		cfg := scaleConfig(e.Cfg.Seed, sf)
		tag := fmt.Sprintf("sf%g", sf)
		sfDir := filepath.Join(e.WorkDir, "scale-"+tag)
		os.RemoveAll(sfDir)
		csvDir := filepath.Join(sfDir, "csv")

		var sum gen.Summary
		genD, err := timeInto(e.Hist("scale/"+tag+"/gen"), func() error {
			var err error
			sum, err = gen.GenerateStream(cfg, csvDir)
			return err
		})
		if err != nil {
			return fmt.Errorf("scale %s: generate: %w", tag, err)
		}
		totalRows := sum.TotalNodes() + sum.TotalEdges()

		neoDir := filepath.Join(sfDir, "neo")
		var neoRes *load.NeoResult
		neoD, err := timeInto(e.Hist("scale/"+tag+"/neo/ingest"), func() error {
			var err error
			neoRes, err = load.BuildNeo(csvDir, neoDir,
				neodb.Config{CachePages: 8192, ImportSpillDir: neoDir}, cfg.Users/4+1)
			return err
		})
		if err != nil {
			return fmt.Errorf("scale %s: neo ingest: %w", tag, err)
		}

		imagePath := filepath.Join(sfDir, "sparksee.img")
		var sparkRes *load.SparkResult
		sparkD, err := timeInto(e.Hist("scale/"+tag+"/sparksee/ingest"), func() error {
			var err error
			sparkRes, err = load.BuildSpark(csvDir, sparkdb.ScriptOptions{
				BatchRows: cfg.Users/4 + 1,
				ImagePath: imagePath,
			})
			return err
		})
		if err != nil {
			neoRes.Store.Close()
			return fmt.Errorf("scale %s: sparksee ingest: %w", tag, err)
		}

		row := sfRow{
			sf: sf, users: cfg.Users, rows: totalRows,
			genD: genD, neoD: neoD, sparkD: sparkD,
			storeB: treeBytes(neoDir),
			stats:  sparkRes.Store.DB().BitmapStats(),
			q:      map[string]map[string]time.Duration{},
		}
		if info, err := os.Stat(imagePath); err == nil {
			row.imageB = info.Size()
		}

		if err := scaleQueries(e, tag, cfg, csvDir, neoRes.Store, sparkRes.Store, &row.q); err != nil {
			neoRes.Store.Close()
			return fmt.Errorf("scale %s: queries: %w", tag, err)
		}

		// The last SF's registries represent the sweep in the session
		// snapshot (later SFs overwrite earlier ones — the biggest build
		// is the interesting one).
		e.RecordEngineSnapshot(neoRes.Store.Name(), neoRes.Store.Obs().Snapshot())
		e.RecordEngineSnapshot(sparkRes.Store.Name(), sparkRes.Store.Obs().Snapshot())
		neoRes.Store.Close()
		os.RemoveAll(sfDir)
		rows = append(rows, row)
	}

	rate := func(n int, d time.Duration) string {
		if d <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
	}
	t := newTable(w, "SF", "users", "rows", "gen", "neo rows/s", "spark rows/s", "neo bytes", "img bytes", "containers (arr/run/bit)")
	for _, r := range rows {
		t.rowf(fmt.Sprintf("%g", r.sf), r.users, r.rows, r.genD.Round(time.Millisecond),
			rate(r.rows, r.neoD), rate(r.rows, r.sparkD), r.storeB, r.imageB,
			fmt.Sprintf("%d (%d/%d/%d)", r.stats.Containers(), r.stats.Arrays, r.stats.Runs, r.stats.Bitsets))
	}

	fmt.Fprintf(w, "\nquery latency (one mid-rep sample per query; full distributions in the snapshot series):\n\n")
	qt := newTable(w, append([]string{"SF", "engine"}, queryIDs...)...)
	for _, r := range rows {
		for _, engine := range []string{"neo", "sparksee"} {
			cells := []any{fmt.Sprintf("%g", r.sf), engine}
			for _, q := range queryIDs {
				cells = append(cells, r.q[engine][q].Round(10*time.Microsecond))
			}
			qt.rowf(cells...)
		}
	}
	fmt.Fprintln(w, "\ndatasets come from the streaming generator (O(users) resident); each SF's")
	fmt.Fprintln(w, "stores are built fresh and released before the next, so peak memory tracks the")
	fmt.Fprintln(w, "largest single SF, not the sweep. Image bytes reflect run-container compression")
	fmt.Fprintln(w, "(v2 format); container mix shows how the adjacency bitmaps are encoded.")
	return nil
}

// scaleQueries runs the Table 2 workload on both freshly built stores,
// recording each rep into the per-SF/engine/query histogram and keeping
// the middle rep's duration for the printed table.
func scaleQueries(e *Env, tag string, cfg gen.Config, csvDir string, neo *twitter.NeoStore, spark *twitter.SparkStore, out *map[string]map[string]time.Duration) error {
	// Probe user: most-mentioned uid, computed engine-independently from
	// the CSVs (same anchoring rule as the Table 2 experiment).
	deg, err := countColumn(filepath.Join(csvDir, "mentions.csv"), 1)
	if err != nil {
		return err
	}
	probe := int64(1)
	for uid := int64(1); uid <= int64(cfg.Users); uid++ {
		if deg[uid] > deg[probe] {
			probe = uid
		}
	}
	uid2 := probe%int64(cfg.Users) + 7
	if f1, err := neo.Followees(probe); err == nil && len(f1) > 0 {
		if f2, err := neo.Followees(f1[len(f1)-1]); err == nil {
			for _, cand := range f2 {
				if cand != probe {
					uid2 = cand
					break
				}
			}
		}
	}
	p := core.Params{UID: probe, UID2: uid2, Tag: "topic1", Threshold: 10, TopN: 10, MaxHops: 3}

	stores := []struct {
		name string
		s    twitter.Store
	}{{"neo", neo}, {"sparksee", spark}}
	for _, st := range stores {
		perQuery := map[string]time.Duration{}
		for _, spec := range core.Workload() {
			h := e.Hist(fmt.Sprintf("scale/%s/%s/%s", tag, st.name, spec.ID))
			var mid time.Duration
			for rep := 0; rep < scaleQueryReps; rep++ {
				d, err := timeInto(h, func() error {
					_, err := spec.Run(st.s, p)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s on %s: %w", spec.ID, st.name, err)
				}
				if rep == scaleQueryReps/2 {
					mid = d
				}
			}
			perQuery[string(spec.ID)] = mid
		}
		(*out)[st.name] = perQuery
	}
	return nil
}

// treeBytes sums the file sizes under dir — the on-disk footprint of
// the page-store engine's directory.
func treeBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
