package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"twigraph/internal/gen"
	"twigraph/internal/ingest"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// datasetConfig is the pinned dataset shape: the generator defaults with
// the user count and hashtag vocabulary overridden.
func datasetConfig(users, hashtags int, seed int64) gen.Config {
	cfg := gen.Default()
	cfg.Seed = seed
	cfg.Users = users
	cfg.Hashtags = hashtags
	return cfg
}

// build is one set-up: the generated CSVs and both engines imported from
// them, plus the time each step took.
type build struct {
	cfg    gen.Config
	sum    gen.Summary
	dir    string
	csvDir string
	neoDir string
	image  string

	neo   *twitter.NeoStore
	spark *twitter.SparkStore

	total, genD, neoD, sparkD time.Duration
	neoStages, sparkStages    stages
}

// stages holds the summed per-batch import stage times the ingest
// pipeline records into each engine's registry.
type stages struct{ parse, resolve, apply time.Duration }

func stagesOf(reg *obs.Registry) stages {
	sum := func(name string) time.Duration { return time.Duration(reg.Histogram(name).Sum()) }
	return stages{sum(ingest.HParseNanos), sum(ingest.HResolveNanos), sum(ingest.HApplyNanos)}
}

// rows is the number of CSV rows both importers read.
func (b *build) rows() int { return b.sum.TotalNodes() + b.sum.TotalEdges() }

// buildOnce generates the dataset into dir and imports it into both
// engines, the way users build them: neodb through its batch importer
// (checkpoint included) and sparkdb through its loader script with the
// image saved to an explicit path.
func buildOnce(dir string, cfg gen.Config, cachePages int, rec *recorder) (*build, error) {
	b := &build{cfg: cfg, dir: dir, csvDir: filepath.Join(dir, "csv"),
		neoDir: filepath.Join(dir, "neo"), image: filepath.Join(dir, "spark.img")}
	batch := cfg.Users/4 + 1
	start := time.Now()

	t := time.Now()
	sum, err := gen.GenerateStream(cfg, b.csvDir)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	b.sum, b.genD = sum, time.Since(t)
	rec.add(span{layer: "gen", name: "GenerateStream", start: t, end: t.Add(b.genD), parent: -1})

	t = time.Now()
	nr, err := load.BuildNeo(b.csvDir, b.neoDir, neodb.Config{CachePages: cachePages}, batch)
	if err != nil {
		return nil, err
	}
	b.neo, b.neoD = nr.Store, time.Since(t)
	rec.add(span{layer: "ingest.neo", name: "BuildNeo", start: t, end: t.Add(b.neoD), parent: -1})

	t = time.Now()
	sr, err := load.BuildSpark(b.csvDir, sparkdb.ScriptOptions{BatchRows: batch, ImagePath: b.image})
	if err != nil {
		b.neo.Close()
		return nil, err
	}
	b.spark, b.sparkD = sr.Store, time.Since(t)
	rec.add(span{layer: "ingest.spark", name: "BuildSpark", start: t, end: t.Add(b.sparkD), parent: -1})

	b.total = time.Since(start)
	b.neoStages = stagesOf(b.neo.Obs())
	b.sparkStages = stagesOf(b.spark.Obs())
	return b, nil
}

// close releases the engines and deletes the build's files.
func (b *build) close() error {
	err := b.neo.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// setupResult is the last of several identical set-ups, kept for the
// workload, with every set-up's timings.
type setupResult struct {
	last   *build
	builds []*build // timings only; all but last are closed
}

// setup builds the dataset and both engines reps times, keeping only the
// last build open. Repeating the set-up lets setup_s be a median instead
// of one noisy shot.
func setup(work string, cfg gen.Config, cachePages, reps int, rec *recorder) (*setupResult, error) {
	res := &setupResult{}
	for i := 0; i < reps; i++ {
		if res.last != nil {
			if err := res.last.close(); err != nil {
				return nil, err
			}
			// Keep only the timings: the engines must not outlive
			// their set-up, or heap_mb would count them.
			res.last.neo, res.last.spark = nil, nil
			res.last = nil
			runtime.GC()
		}
		b, err := buildOnce(filepath.Join(work, fmt.Sprintf("build%d", i)), cfg, cachePages, rec)
		if err != nil {
			return nil, err
		}
		res.last = b
		res.builds = append(res.builds, b)
	}
	return res, nil
}

// medianOf returns the median of f over every set-up.
func (s *setupResult) medianOf(f func(*build) float64) float64 {
	vals := make([]float64, len(s.builds))
	for i, b := range s.builds {
		vals[i] = f(b)
	}
	return median(vals)
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// liveHeapMB forces two collections and returns the live heap in MB
// (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// sampleUsers picks source users spread over the follower-count
// spectrum: the hubs most-followed users, and n-hubs more in an even
// sweep over all users from an offset the seed picks. Each group comes
// back in a seeded order.
func sampleUsers(csvDir string, users, n, hubs int, rng *rand.Rand) (top, sweep []int64, err error) {
	followers, err := readFollowers(filepath.Join(csvDir, "users.csv"), users)
	if err != nil {
		return nil, nil, err
	}
	byDeg := make([]int64, users)
	for i := range byDeg {
		byDeg[i] = int64(i + 1)
	}
	sort.SliceStable(byDeg, func(i, j int) bool { return followers[byDeg[i]-1] > followers[byDeg[j]-1] })
	top = append(top, byDeg[:hubs]...)
	step := (users - hubs) / (n - hubs)
	for i := hubs + rng.Intn(step); i < users && len(sweep) < n-hubs; i += step {
		sweep = append(sweep, byDeg[i])
	}
	rng.Shuffle(len(top), func(i, j int) { top[i], top[j] = top[j], top[i] })
	rng.Shuffle(len(sweep), func(i, j int) { sweep[i], sweep[j] = sweep[j], sweep[i] })
	return top, sweep, nil
}
