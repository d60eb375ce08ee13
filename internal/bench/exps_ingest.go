package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
)

// ingestWorkers is the parse/resolve worker count of the parallel
// ingest arm. It is a constant so the series names (ingest/neo-w8,
// ingest/sparksee-w8) match the checked-in baseline on any machine.
const ingestWorkers = 8

// runIngest measures the staged bulk-ingestion pipeline on both engines:
// each imports the generated dataset from scratch with a serial pipeline
// and with ingestWorkers parse/resolve workers, plus a WAL group-commit
// run for the Neo4j-analog. Because batches are applied in file order regardless of
// the worker count, every variant produces byte-identical stores — the
// speedup is pure pipeline overlap of CSV decoding and id resolution
// with record application.
//
// On a single-core runner the parallel variant's workers share one CPU
// and the speedup column reads ~1.00x; the figures are only meaningful
// on multi-core hardware.
func runIngest(e *Env, w io.Writer) error {
	csvDir, sum, err := e.Dataset()
	if err != nil {
		return err
	}
	par := ingestWorkers
	totalRows := sum.TotalNodes() + sum.TotalEdges()

	neoRun := func(tag string, cfg neodb.Config) (*load.NeoResult, time.Duration, error) {
		dbDir := filepath.Join(e.WorkDir, "ingest-neo-"+tag)
		os.RemoveAll(dbDir)
		var res *load.NeoResult
		d, err := timeInto(e.Hist("ingest/neo-"+tag), func() error {
			var err error
			res, err = load.BuildNeo(csvDir, dbDir, cfg, e.Cfg.Users/4+1)
			return err
		})
		return res, d, err
	}
	sparkRun := func(tag string, workers int) (*sparkdb.DB, time.Duration, error) {
		scriptPath, err := e.SparkScript()
		if err != nil {
			return nil, 0, err
		}
		db := sparkdb.New(sparkdb.Config{})
		d, err := timeInto(e.Hist("ingest/sparksee-"+tag), func() error {
			_, err := db.RunScript(scriptPath, sparkdb.ScriptOptions{
				BatchRows: e.Cfg.Users/4 + 1,
				Workers:   workers,
				ImagePath: filepath.Join(e.WorkDir, "ingest-spark-"+tag+".img"),
				DataDir:   csvDir,
			}, nil)
			return err
		})
		return db, d, err
	}
	rate := func(rows int, d time.Duration) string {
		if d <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(rows)/d.Seconds())
	}

	neoSerial, dNeo1, err := neoRun("w1", neodb.Config{CachePages: 8192, ImportWorkers: 1})
	if err != nil {
		return err
	}
	neoSerial.Store.Close()
	neoPar, dNeoN, err := neoRun(fmt.Sprintf("w%d", par), neodb.Config{CachePages: 8192, ImportWorkers: par})
	if err != nil {
		return err
	}
	defer neoPar.Store.Close()
	neoGC, dNeoGC, err := neoRun("groupcommit", neodb.Config{CachePages: 8192, ImportWorkers: par, ImportGroupCommit: true})
	if err != nil {
		return err
	}
	commits := neoGC.Store.DB().Obs().Counter(neodb.CWALGroupCommits).Load()
	// The ingest stores are built ad hoc (not through Env.Neo/Spark), so
	// deposit a registry dump — import_parse/resolve/apply_nanos and
	// wal_group_commits live there — for the session snapshot. The
	// group-commit run carries both.
	e.RecordEngineSnapshot("neo", neoGC.Store.Obs().Snapshot())
	neoGC.Store.Close()
	_, dSpark1, err := sparkRun("w1", 1)
	if err != nil {
		return err
	}
	sparkPar, dSparkN, err := sparkRun(fmt.Sprintf("w%d", par), par)
	if err != nil {
		return err
	}
	e.RecordEngineSnapshot("sparksee", sparkPar.Obs().Snapshot())

	t := newTable(w, "engine", "pipeline", "rows/s", "total", "speedup")
	t.rowf("neo", "workers=1", rate(totalRows, dNeo1), dNeo1.Round(time.Millisecond), "1.00x")
	t.rowf("neo", fmt.Sprintf("workers=%d", par), rate(totalRows, dNeoN), dNeoN.Round(time.Millisecond),
		fmt.Sprintf("%.2fx", float64(dNeo1)/float64(dNeoN)))
	t.rowf("neo", fmt.Sprintf("workers=%d +group-commit", par), rate(totalRows, dNeoGC), dNeoGC.Round(time.Millisecond),
		fmt.Sprintf("%.2fx", float64(dNeo1)/float64(dNeoGC)))
	t.rowf("sparksee", "workers=1", rate(totalRows, dSpark1), dSpark1.Round(time.Millisecond), "1.00x")
	t.rowf("sparksee", fmt.Sprintf("workers=%d", par), rate(totalRows, dSparkN), dSparkN.Round(time.Millisecond),
		fmt.Sprintf("%.2fx", float64(dSpark1)/float64(dSparkN)))

	r := neoPar.Report
	fmt.Fprintf(w, "\nneo phase split at workers=%d: nodes %v | dense %v | edges %v | indexes %v\n",
		par, r.NodePhase, r.DensePhase, r.EdgePhase, r.IndexPhase)
	fmt.Fprintf(w, "group-commit run: %d WAL frames, one fsync each (crash recovers whole batches)\n", commits)
	fmt.Fprintf(w, "dataset: %d nodes + %d edges; stores are byte-identical across all variants\n",
		sum.TotalNodes(), sum.TotalEdges())
	fmt.Fprintln(w, "per-stage parse/resolve/apply histograms land in the engine registries")
	fmt.Fprintln(w, "(import_parse_nanos, import_resolve_nanos, import_apply_nanos) in -json snapshots")
	return nil
}
