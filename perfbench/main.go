// Command perfbench is the repository's end-to-end benchmark. It
// generates a pinned dataset from a seed, builds both engines from it as
// users build them, and drives one of three workloads through the
// layers' public functions, timing those calls itself and reading the
// counters the engines already export. Every read is checked by a result
// oracle. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records spans, writes a Perfetto-loadable trace and reports
// the per-layer metrics instead. See README.md for the workloads and
// metrics, and BENCHMARK.json for the pinned settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/obs"
	"twigraph/internal/twitter"
)

// The workloads.
const (
	wAnalytic = "embedded_analytic"
	wFeed     = "embedded_feed_rw"
	wServed   = "served_point"
)

// failLatency is the latency a failed op counts with: the served call
// timeout, so a failure always misses any latency limit the percentiles
// are read against.
const failLatency = 5 * time.Second

// workRoot holds each run's scratch directory: datasets, stores, the
// spark image. Traces are written next to it.
var workRoot = filepath.Join(".bench_build", "work")

// setups is how many times a run builds the dataset and both engines;
// setup_s is the median.
const setups = 3

// sampledUsers is how many source users the analytic and served mixes
// draw from; sampledHubs of them are the most-followed users, one per
// analytic block.
const (
	sampledUsers = 128
	sampledHubs  = sampledUsers / analyticUsersPerRound
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	users      int
	hashtags   int
	rate       float64
	cachePages string
	traceOut   string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// pages returns the neodb CachePages pinned for the workload.
func (o options) pages() (int, error) {
	for _, kv := range strings.Split(o.cachePages, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if ok && name == o.workload {
			return strconv.Atoi(val)
		}
	}
	return 0, fmt.Errorf("--cache-pages has no entry for %s", o.workload)
}

// bench is the state of one run.
type bench struct {
	opt    options
	b      *build
	stores [2]twitter.UpdateStore
	regs   [2]*obs.Registry
	runs   [2]*engineRun
	rec    *recorder // nil unless --trace 1
	rng    *rand.Rand
	opSeq  atomic.Int64

	// registry counters and runtime stats at the start and end of the
	// measured phase
	before, after       [2]counters
	memBefore, memAfter runtime.MemStats
	measureStart        time.Time
	measured            time.Duration

	mu         sync.Mutex
	mismatches int
	errors     int

	// set by the served workload
	served *servedStats
}

func (bn *bench) nextOp() int64 { return bn.opSeq.Add(1) }
func (bn *bench) tracing() bool { return bn.rec != nil }
func (bn *bench) correct() bool { return bn.mismatches == 0 }

// startMeasure snapshots the counters at the start of the measured
// phase. It first collects the warm-up's garbage, so every run starts
// measuring from the same heap state instead of wherever the previous
// collection cycle happened to be.
func (bn *bench) startMeasure() {
	runtime.GC()
	for e := range bn.regs {
		bn.before[e] = snapCounters(bn.regs[e])
	}
	bn.memBefore = readMem()
	bn.measureStart = time.Now()
}

func (bn *bench) stopMeasure() {
	bn.measured = time.Since(bn.measureStart)
	for e := range bn.regs {
		bn.after[e] = snapCounters(bn.regs[e])
	}
	bn.memAfter = readMem()
}

// mismatch reports an oracle failure: the op, and both digests.
func (bn *bench) mismatch(o *op, engine string, got, want uint64) {
	bn.mu.Lock()
	defer bn.mu.Unlock()
	bn.mismatches++
	if bn.mismatches <= 10 {
		fmt.Printf("ORACLE MISMATCH workload=%s op=%d query=%s params=%v engine=%s digest=%016x reference=%016x\n",
			bn.opt.workload, o.idx, o.q.id, o.params(), engine, got, want)
	}
}

// fail reports a failed op (the first few of them).
func (bn *bench) fail(engine, id string, err error) {
	bn.mu.Lock()
	defer bn.mu.Unlock()
	bn.errors++
	if bn.errors <= 10 {
		fmt.Printf("op failed: engine=%s query=%s: %v\n", engine, id, err)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: "+wAnalytic+", "+wFeed+" or "+wServed)
	flag.Int64Var(&opt.seed, "seed", 1, "dataset and workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&opt.trace, "trace", 0, "1 records spans, writes a trace and reports per-layer metrics")
	// The pinned settings have no defaults: BENCHMARK.json's command is
	// the one place they are set.
	flag.IntVar(&opt.users, "users", 0, "users in the generated dataset (required)")
	flag.IntVar(&opt.hashtags, "hashtags", 0, "hashtag vocabulary (required)")
	flag.Float64Var(&opt.rate, "rate", 0, "served_point page views (four point reads each) per second, both engines together (required)")
	flag.StringVar(&opt.cachePages, "cache-pages", "", "neodb CachePages per workload, as name=pages,... (required)")
	flag.StringVar(&opt.traceOut, "trace-out", "", "trace file of a --trace 1 run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"users", "hashtags", "rate", "cache-pages"} {
		if !set[name] {
			fmt.Fprintf(os.Stderr, "perfbench: --%s is required\n", name)
			return 2
		}
	}
	if err := execute(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errMismatch marks a run whose results failed the oracle; its result
// line is still printed.
var errMismatch = fmt.Errorf("oracle mismatch")

func execute(opt options) error {
	switch opt.workload {
	case wAnalytic, wFeed, wServed:
	default:
		return fmt.Errorf("unknown --workload %q", opt.workload)
	}
	pages, err := opt.pages()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// The sparkdb loader stages its script in a temporary directory;
	// keep that inside the scratch directory too.
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	os.Setenv("TMPDIR", tmp)

	bn := &bench{opt: opt, rng: rand.New(rand.NewSource(opt.seed))}
	if opt.trace != 0 {
		bn.rec = &recorder{}
		bn.rec.setEnabled(true)
	}
	cfg := datasetConfig(opt.users, opt.hashtags, opt.seed)
	su, err := setup(work, cfg, pages, setups, bn.rec)
	bn.rec.setEnabled(false)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	bn.b = su.last
	defer bn.b.close()
	bn.stores = [2]twitter.UpdateStore{bn.b.neo, bn.b.spark}
	bn.regs = [2]*obs.Registry{bn.b.neo.Obs(), bn.b.spark.Obs()}
	bn.runs = [2]*engineRun{newEngineRun("neo"), newEngineRun("spark")}

	res := &result{bn: bn, setup: su}
	if err := res.measureStatic(); err != nil {
		return err
	}
	hubs, sweep, err := sampleUsers(bn.b.csvDir, cfg.Users, sampledUsers, sampledHubs, bn.rng)
	if err != nil {
		return err
	}
	switch opt.workload {
	case wAnalytic:
		err = bn.runAnalytic(hubs, sweep)
	case wFeed:
		err = bn.runFeed()
	case wServed:
		err = bn.runServed(append(hubs, sweep...))
	}
	if err != nil {
		return err
	}
	res.bitmapAfter = bn.b.spark.DB().BitmapStats()

	if bn.tracing() {
		path := opt.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
		}
		if err := bn.rec.writeChromeTrace(path, bn.traceProcesses()); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace written to %s (%d benchmark spans)\n", path, len(bn.rec.spans))
	}

	var ms []metric
	if bn.tracing() {
		ms = res.perLayer()
	} else {
		ms = res.endToEnd()
	}
	res.printHuman(ms)
	if err := printResult(bn, ms); err != nil {
		return err
	}
	if !bn.correct() {
		return errMismatch
	}
	return nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // sample count behind a percentile (0 = not a percentile)
}

// printResult writes the JSON result line.
func printResult(bn *bench, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: bn.correct(), Metrics: map[string]val{}}
	for _, r := range bn.runs {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
