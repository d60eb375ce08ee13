// Command twiload bulk-loads a generated CSV dataset into one or both
// engines, printing the import progress series (the data behind the
// paper's Figures 2 and 3), the phase report, and a per-phase
// throughput summary.
//
// Usage:
//
//	twiload -csv data/ -engine both -out dbs/
//	twiload -csv data/ -engine both -out dbs/ -workers 8 -verify
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/pagecache"
	"twigraph/internal/sparkdb"
)

func main() {
	csvDir := flag.String("csv", "data", "directory with the generated CSV files")
	engine := flag.String("engine", "both", "neo | sparksee | both")
	out := flag.String("out", "dbs", "output directory for the store files")
	batch := flag.Int("batch", 100000, "pipeline batch size and progress sampling granularity (rows)")
	workers := flag.Int("workers", 0, "import pipeline workers (0 = GOMAXPROCS, 1 = serial)")
	cache := flag.Int64("spark-cache", 0, "sparksee extent-cache bytes (0 = script default, 5 GiB)")
	materialize := flag.Bool("materialize", false, "sparksee: materialise neighbor indexes during import")
	verify := flag.Bool("verify", false, "run a structural integrity check on each store after import")
	flag.Parse()

	if *engine == "neo" || *engine == "both" {
		if err := loadNeo(*csvDir, filepath.Join(*out, "neo"), *batch, *workers, *verify); err != nil {
			fmt.Fprintln(os.Stderr, "twiload:", err)
			os.Exit(1)
		}
	}
	if *engine == "sparksee" || *engine == "both" {
		if err := loadSpark(*csvDir, filepath.Join(*out, "sparksee.img"), *batch, *workers, *cache, *materialize, *verify); err != nil {
			fmt.Fprintln(os.Stderr, "twiload:", err)
			os.Exit(1)
		}
	}
}

// rate formats a rows-per-second figure, guarding the zero-duration
// case tiny datasets hit.
func rate(rows int, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f rows/s", float64(rows)/d.Seconds())
}

// peakHeapBytes reports the high-water heap footprint: heap pages
// obtained from the OS, which only grows over a process's life.
func peakHeapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapSys
}

// dirBytes sums the file sizes under dir (the on-disk store footprint
// for the page-store engine).
func dirBytes(dir string) int64 {
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

func loadNeo(csvDir, dbDir string, batch, workers int, verify bool) error {
	fmt.Printf("== importing into the Neo4j-analog at %s ==\n", dbDir)
	res, err := load.BuildNeo(csvDir, dbDir, neodb.Config{ImportWorkers: workers}, batch)
	if err != nil {
		return err
	}
	defer res.Store.Close()
	for _, p := range res.Series {
		fmt.Printf("  %-8s %-10s %10d rows  %8dms\n", p.Phase, p.Label, p.Count, p.Elapsed.Milliseconds())
	}
	r := res.Report
	fmt.Printf("nodes %d, edges %d\nphases: nodes %v | dense %v | edges %v | indexes %v | total %v\n",
		r.Nodes, r.Edges, r.NodePhase, r.DensePhase, r.EdgePhase, r.IndexPhase, r.Total)
	fmt.Printf("throughput: nodes %s | edges %s | overall %s (wall %v)\n",
		rate(r.Nodes, r.NodePhase), rate(r.Edges, r.EdgePhase), rate(r.Nodes+r.Edges, r.Total), r.Total)
	fmt.Printf("store: nodes %d, edges %d, store bytes %d, id-map bytes %d, peak heap %d\n",
		r.Nodes, r.Edges, dirBytes(dbDir), r.IDMapBytes, peakHeapBytes())
	printStoreFiles(dbDir)
	fmt.Println()
	if verify {
		rep := res.Store.DB().CheckIntegrity()
		if !rep.OK() {
			return fmt.Errorf("neo store failed the integrity check:\n%s", rep)
		}
		fmt.Println("integrity check passed")
	}
	return nil
}

// storeFiles are neodb's record files, one line each in twiload's
// report, so the bytes relationship groups add and 48-bit records save
// can be read off an import.
var storeFiles = []string{"nodes.store", "rels.store", "groups.store", "props.store", "strings.store"}

// printStoreFiles prints each record file's size and page count
// (header page included).
func printStoreFiles(dbDir string) {
	for _, name := range storeFiles {
		var size int64
		if info, err := os.Stat(filepath.Join(dbDir, name)); err == nil {
			size = info.Size()
		}
		fmt.Printf("  %-14s %12d bytes %8d pages\n", name, size, (size+pagecache.PageSize-1)/pagecache.PageSize)
	}
}

func loadSpark(csvDir, imagePath string, batch, workers int, cache int64, materialize, verify bool) error {
	fmt.Printf("== importing into the Sparksee-analog image %s ==\n", imagePath)
	res, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{
		BatchRows:   batch,
		Workers:     workers,
		CacheSize:   cache,
		Materialize: materialize,
		ImagePath:   imagePath,
	})
	if err != nil {
		return err
	}
	// The loader reports progress per "nodes:<type>" / "edges:<type>"
	// phase; the last event of each phase carries its row total and
	// elapsed time, which is all the throughput summary needs.
	type phaseEnd struct {
		rows    int
		elapsed time.Duration
	}
	ends := map[string]phaseEnd{}
	var order []string
	for _, p := range res.Series {
		flush := ""
		if p.Flushed {
			flush = "  FLUSH"
		}
		fmt.Printf("  %-16s %10d rows  %8dms%s\n", p.Phase, p.Rows, p.Elapsed.Milliseconds(), flush)
		if _, seen := ends[p.Phase]; !seen {
			order = append(order, p.Phase)
		}
		ends[p.Phase] = phaseEnd{p.Rows, p.Elapsed}
	}
	r := res.Report
	fmt.Printf("nodes %d, edges %d, flushes %d, total %v\n", r.Nodes, r.Edges, r.Flushes, r.Duration)
	fmt.Print("throughput:")
	for _, ph := range order {
		e := ends[ph]
		fmt.Printf(" %s %s |", ph, rate(e.rows, e.elapsed))
	}
	fmt.Printf(" overall %s (wall %v)\n", rate(r.Nodes+r.Edges, r.Duration), r.Duration)
	imgBytes := int64(0)
	if info, err := os.Stat(imagePath); err == nil {
		imgBytes = info.Size()
	}
	st := res.Store.DB().BitmapStats()
	fmt.Printf("store: nodes %d, edges %d, image bytes %d, containers %d (array %d / run %d / bitset %d), bitmap bytes %d, peak heap %d\n",
		r.Nodes, r.Edges, imgBytes, st.Containers(), st.Arrays, st.Runs, st.Bitsets, st.MemBytes, peakHeapBytes())
	if verify {
		rep := res.Store.DB().CheckIntegrity()
		if !rep.OK() {
			return fmt.Errorf("sparksee store failed the integrity check:\n%s", rep)
		}
		fmt.Println("integrity check passed")
	}
	return nil
}
