// Package bench implements the experiment harness: one experiment per
// table and figure in the paper's evaluation, plus ablations for the
// design observations of its §4 discussion. Each experiment regenerates
// the corresponding table rows or figure series as plain text, so the
// shapes (who wins, trends against rows returned / degree / path
// length, import spikes) can be compared against the paper directly.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/sparkdb"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
)

// Env holds the shared state of an experiment session: the generated
// dataset and lazily built engine instances. Building each engine once
// and reusing it across experiments mirrors the paper's setup (one
// import, many query runs). The stores it builds run the Faithful
// profile: one query at a time, Cypher on neodb and navigation on
// sparkdb, as the paper measured them.
type Env struct {
	Cfg     gen.Config
	WorkDir string

	// QueryTimeout bounds every store query by a deadline. Queries that
	// run past it abort with a context error and count into the engine's
	// queries_timed_out counter; 0 leaves queries unbounded.
	QueryTimeout time.Duration

	// Reg collects the harness's own measurements: one latency histogram
	// per experiment/engine series ("fig4a/neo", "coldcache/cold", ...).
	// Engine-internal counters live in each engine's own registry.
	Reg *obs.Registry

	// Trace turns on each engine's tracer and trace buffer as it is
	// built, so a session can be exported with WriteChromeTrace. Set it
	// before the first Neo()/Spark() call (EnableTracing does both).
	Trace bool

	// QueryStats folds each engine's per-fingerprint statement registry
	// into Snapshot (twibench -qstats), so a run's time can be
	// attributed to individual query classes, not just the aggregate
	// series.
	QueryStats bool

	// neoPub/sparkPub publish the built stores for concurrent readers
	// (the telemetry server scrapes mid-bench from HTTP goroutines; the
	// sync.Once fields above only synchronise the building goroutines).
	neoPub   atomic.Pointer[load.NeoResult]
	sparkPub atomic.Pointer[load.SparkResult]

	genOnce sync.Once
	genErr  error
	csvDir  string
	summary gen.Summary

	neoOnce   sync.Once
	neoErr    error
	neoRes    *load.NeoResult
	sparkOnce sync.Once
	sparkErr  error
	sparkRes  *load.SparkResult

	degOnce    sync.Once
	degErr     error
	mentionDeg map[int64]int // uid -> times mentioned
	outDeg     map[int64]int // uid -> followees

	scriptOnce sync.Once
	scriptErr  error
	scriptPath string
}

// NewEnv creates an environment; workDir receives the CSVs and store
// files.
func NewEnv(cfg gen.Config, workDir string) *Env {
	return &Env{Cfg: cfg, WorkDir: workDir, Reg: obs.NewRegistry()}
}

// Hist returns the named harness latency histogram, creating it on
// first use.
func (e *Env) Hist(name string) *obs.Histogram { return e.Reg.Histogram(name) }

// timeInto runs f, records its wall time into h (nil h skips
// recording), and returns the elapsed duration. Every timed section of
// the harness funnels through here so each experiment series
// accumulates a full latency distribution, not just the printed
// average.
func timeInto(h *obs.Histogram, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if h != nil {
		h.Observe(int64(d))
	}
	return d, nil
}

// DefaultConfig is the experiment-scale dataset: big enough for the
// figure trends to emerge, small enough for a laptop run.
func DefaultConfig() gen.Config {
	cfg := gen.Default()
	cfg.Users = 4000
	cfg.Hashtags = 200
	cfg.MentionsPer = 0.9
	cfg.TagsPer = 0.6
	cfg.Retweets = true
	cfg.RetweetsPer = 0.25
	return cfg
}

// Dataset generates (once) and returns the CSV directory and summary.
func (e *Env) Dataset() (string, gen.Summary, error) {
	e.genOnce.Do(func() {
		e.csvDir = filepath.Join(e.WorkDir, "csv")
		e.summary, e.genErr = gen.Generate(e.Cfg, e.csvDir)
	})
	return e.csvDir, e.summary, e.genErr
}

// Neo builds (once) and returns the Neo4j-analog store with its import
// artifacts.
func (e *Env) Neo() (*load.NeoResult, error) {
	if _, _, err := e.Dataset(); err != nil {
		return nil, err
	}
	e.neoOnce.Do(func() {
		e.neoRes, e.neoErr = load.BuildNeo(e.csvDir, filepath.Join(e.WorkDir, "neo"),
			neodb.Config{CachePages: 8192}, e.Cfg.Users/4+1)
		if e.neoErr == nil {
			e.neoRes.Store.SetProfile(spmat.Faithful)
			if e.QueryTimeout > 0 {
				e.neoRes.Store.SetQueryTimeout(e.QueryTimeout)
			}
			if e.Trace {
				e.neoRes.Store.DB().Tracer().SetEnabled(true)
				e.neoRes.Store.DB().Trace().SetEnabled(true)
			}
			e.neoPub.Store(e.neoRes)
		}
	})
	return e.neoRes, e.neoErr
}

// Spark builds (once) and returns the Sparksee-analog store with its
// import artifacts.
func (e *Env) Spark() (*load.SparkResult, error) {
	if _, _, err := e.Dataset(); err != nil {
		return nil, err
	}
	e.sparkOnce.Do(func() {
		e.sparkRes, e.sparkErr = load.BuildSpark(e.csvDir, sparkdb.ScriptOptions{
			BatchRows: e.Cfg.Users/4 + 1,
		})
		if e.sparkErr == nil {
			e.sparkRes.Store.SetProfile(spmat.Faithful)
			if e.QueryTimeout > 0 {
				e.sparkRes.Store.SetQueryTimeout(e.QueryTimeout)
			}
			if e.Trace {
				e.sparkRes.Store.DB().Tracer().SetEnabled(true)
				e.sparkRes.Store.DB().Trace().SetEnabled(true)
			}
			e.sparkPub.Store(e.sparkRes)
		}
	})
	return e.sparkRes, e.sparkErr
}

// SparkScript writes (once) the sparkdb loader script for the generated
// dataset into the work dir — not the CSV dir, which stays pristine —
// and returns its path. Experiments that re-run the import with custom
// options use it with ScriptOptions.DataDir pointed at the CSV dir.
func (e *Env) SparkScript() (string, error) {
	_, sum, err := e.Dataset()
	if err != nil {
		return "", err
	}
	e.scriptOnce.Do(func() {
		e.scriptPath = filepath.Join(e.WorkDir, "twitter.sks")
		e.scriptErr = os.WriteFile(e.scriptPath, []byte(load.Script(sum.Retweets > 0)), 0o644)
	})
	return e.scriptPath, e.scriptErr
}

// Stores returns both engine stores.
func (e *Env) Stores() (*twitter.NeoStore, *twitter.SparkStore, error) {
	n, err := e.Neo()
	if err != nil {
		return nil, nil, err
	}
	s, err := e.Spark()
	if err != nil {
		return nil, nil, err
	}
	return n.Store, s.Store, nil
}

// Close releases engine resources.
func (e *Env) Close() error {
	if e.neoRes != nil {
		return e.neoRes.Store.Close()
	}
	return nil
}

// MentionDegree returns how often each user is mentioned (the x-axis of
// Figure 4(e,f)), computed engine-independently from the CSVs.
func (e *Env) MentionDegree() (map[int64]int, error) {
	if err := e.loadDegrees(); err != nil {
		return nil, err
	}
	return e.mentionDeg, nil
}

// OutDegree returns each user's followee count (drives the Figure 4(c)
// explosion analysis).
func (e *Env) OutDegree() (map[int64]int, error) {
	if err := e.loadDegrees(); err != nil {
		return nil, err
	}
	return e.outDeg, nil
}

func (e *Env) loadDegrees() error {
	if _, _, err := e.Dataset(); err != nil {
		return err
	}
	e.degOnce.Do(func() {
		e.mentionDeg, e.degErr = countColumn(filepath.Join(e.csvDir, "mentions.csv"), 1)
		if e.degErr != nil {
			return
		}
		e.outDeg, e.degErr = countColumn(filepath.Join(e.csvDir, "follows.csv"), 0)
	})
	return e.degErr
}

func countColumn(path string, col int) (map[int64]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	r.FieldsPerRecord = -1
	counts := map[int64]int{}
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return counts, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			continue
		}
		id, err := strconv.ParseInt(rec[col], 10, 64)
		if err != nil {
			return nil, err
		}
		counts[id]++
	}
}

// sampleUsers returns up to n distinct uids spread across the degree
// spectrum: the heaviest hubs plus evenly spaced users, so figure
// buckets cover both ends.
func (e *Env) sampleUsers(n int, byDegree map[int64]int) []int64 {
	type du struct {
		uid int64
		deg int
	}
	all := make([]du, 0, e.Cfg.Users)
	for uid := int64(1); uid <= int64(e.Cfg.Users); uid++ {
		all = append(all, du{uid, byDegree[uid]})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].deg > all[j].deg })
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	// Top decile of hubs first.
	for i := 0; i < len(all) && len(out) < n/2; i++ {
		if !seen[all[i].uid] {
			seen[all[i].uid] = true
			out = append(out, all[i].uid)
		}
	}
	// Then an even sweep.
	step := len(all)/(n-len(out)) + 1
	for i := 0; i < len(all) && len(out) < n; i += step {
		if !seen[all[i].uid] {
			seen[all[i].uid] = true
			out = append(out, all[i].uid)
		}
	}
	return out
}

// tableWriter renders fixed-width rows.
type tableWriter struct {
	w      io.Writer
	widths []int
}

func newTable(w io.Writer, headers ...string) *tableWriter {
	t := &tableWriter{w: w}
	for _, h := range headers {
		width := len(h)
		if width < 12 {
			width = 12
		}
		t.widths = append(t.widths, width)
	}
	t.row(headers...)
	sep := make([]string, len(headers))
	for i, wd := range t.widths {
		for j := 0; j < wd; j++ {
			sep[i] += "-"
		}
	}
	t.row(sep...)
	return t
}

func (t *tableWriter) row(cells ...string) {
	for i, c := range cells {
		if i < len(t.widths) {
			fmt.Fprintf(t.w, "%-*s  ", t.widths[i], c)
		} else {
			fmt.Fprintf(t.w, "%s  ", c)
		}
	}
	fmt.Fprintln(t.w)
}

func (t *tableWriter) rowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c)
	}
	t.row(out...)
}
