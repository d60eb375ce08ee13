// Command twiserve runs the fault-tolerant network serving layer: it
// builds the dataset, loads both embedded engines, and serves the
// query catalogue over the length-prefixed binary protocol with
// credit-based streaming, per-query deadlines, admission control and
// graceful SIGTERM drain (docs/SERVING.md).
//
// Usage:
//
//	twiserve -addr :7687 -listen :9090 -users 1000
//	twiserve -addr :7687 -query-timeout 2s -max-concurrent 8
//	twiserve -addr :7687 -trace serve.trace.json   # per-query wire phases + engine spans
//
// A built-in load driver doubles as the CI smoke client: it connects
// with the retrying driver, fans out concurrent workers over both
// engines, and exits non-zero on any failed call.
//
//	twiserve -drive -addr 127.0.0.1:7687 -clients 4 -iters 50
//	twiserve -drive -addr 127.0.0.1:7687 -fault   # with network fault injection
//	twiserve -drive -inproc -trace both.trace.json # server in-process: one merged
//	                                               # client+server Perfetto timeline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/driver"
	"twigraph/internal/faultconn"
	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/serve"
	"twigraph/internal/shutdown"
	"twigraph/internal/sparkdb"
	"twigraph/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7687", "query protocol listen address (serve) or server address (drive)")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /sessions, pprof) on this address")
	work := flag.String("work", "", "working directory for the dataset and store files (default: a temp dir)")
	users := flag.Int("users", 1000, "dataset scale in users")
	seed := flag.Int64("seed", 1, "dataset PRNG seed (serve) / client PRNG seed (drive)")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session cap (0 = default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrently executing queries (0 = default)")
	maxQueued := flag.Int("max-queued", 0, "admission queue depth before shedding (0 = default)")
	queueWait := flag.Duration("queue-wait", 0, "max time a query waits for an execution slot (0 = default)")
	queryTimeout := flag.Duration("query-timeout", 0, "default per-query deadline when the client sends none (0 = unbounded)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap sessions idle longer than this (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 0, "graceful drain budget on shutdown (0 = default)")
	trace := flag.String("trace", "", "write a Chrome/Perfetto trace here on exit: serve mode merges the wire-phase and engine spans; drive mode records the driver span tree; -drive -inproc merges both sides onto one timeline")

	drive := flag.Bool("drive", false, "run the load/smoke client against -addr instead of serving")
	clients := flag.Int("clients", 4, "drive: concurrent client workers")
	iters := flag.Int("iters", 50, "drive: queries per worker")
	engines := flag.String("engines", "neo,sparksee", "drive: comma-separated engines to alternate over")
	fault := flag.Bool("fault", false, "drive: inject network faults (resets, partial writes, corruption) under the retrying driver")
	inproc := flag.Bool("inproc", false, "drive: build the dataset and run the server in-process over loopback — client and server trace buffers share one time origin, so -trace exports a single two-sided timeline")
	flag.Parse()

	if *drive {
		os.Exit(runDrive(driveOpts{
			addr: *addr, clients: *clients, iters: *iters, seed: *seed,
			engines: strings.Split(*engines, ","), fault: *fault,
			trace: *trace, inproc: *inproc, users: *users,
		}))
	}
	os.Exit(runServe(serveOpts{
		addr: *addr, listen: *listen, work: *work, users: *users, seed: *seed,
		trace: *trace,
		cfg: serve.Config{
			MaxSessions:         *maxSessions,
			MaxConcurrent:       *maxConcurrent,
			MaxQueued:           *maxQueued,
			MaxQueueWait:        *queueWait,
			DefaultQueryTimeout: *queryTimeout,
			IdleTimeout:         *idleTimeout,
			DrainTimeout:        *drainTimeout,
		},
	}))
}

type serveOpts struct {
	addr, listen, work, trace string
	users                     int
	seed                      int64
	cfg                       serve.Config
}

// buildStores generates the dataset and loads both engines under dir.
func buildStores(dir string, users int, seed int64) (*load.NeoResult, *load.SparkResult, error) {
	cfg := gen.Default()
	cfg.Users = users
	cfg.Seed = seed
	csvDir := filepath.Join(dir, "csv")
	fmt.Printf("generating dataset (%d users) in %s\n", cfg.Users, dir)
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		return nil, nil, err
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"),
		neodb.Config{CachePages: 8192}, cfg.Users/4+1)
	if err != nil {
		return nil, nil, err
	}
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{BatchRows: cfg.Users/4 + 1})
	if err != nil {
		neoRes.Store.Close()
		return nil, nil, err
	}
	return neoRes, sparkRes, nil
}

// enableStoreTracing turns on the engines' tracers and trace buffers so
// every store-level query span (carrying its query ID) lands in the
// engine buffers for the merged export.
func enableStoreTracing(neoRes *load.NeoResult, sparkRes *load.SparkResult) {
	for _, db := range []interface {
		Tracer() *obs.Tracer
		Trace() *obs.TraceBuffer
	}{neoRes.Store.DB(), sparkRes.Store.DB()} {
		db.Tracer().SetEnabled(true)
		db.Trace().SetEnabled(true)
	}
}

// writeTrace exports the merged Chrome trace document to path.
func writeTrace(path string, procs []obs.TraceProcess) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, procs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := 0
	for _, p := range procs {
		n += p.Buf.Len()
	}
	fmt.Printf("trace written to %s (%d events)\n", path, n)
	return nil
}

func runServe(o serveOpts) int {
	dir := o.work
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twiserve-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
	}

	neoRes, sparkRes, err := buildStores(dir, o.users, o.seed)
	if err != nil {
		return fail(err)
	}
	defer neoRes.Store.Close()

	srv := serve.NewServer(o.cfg,
		serve.NewNeoEngine(neoRes.Store.DB()),
		serve.NewSparkEngine(sparkRes.Store.DB()))

	if o.trace != "" {
		srv.Trace().SetEnabled(true)
		enableStoreTracing(neoRes, sparkRes)
	}

	if o.listen != "" {
		tsrv := telemetry.NewServer()
		tsrv.AddRegistry("serve", srv.Metrics())
		tsrv.AddRegistry("neo", neoRes.Store.Obs())
		tsrv.AddRegistry("sparksee", sparkRes.Store.Obs())
		tsrv.AddHealth("serve", srv.Health)
		tsrv.AddHealth("neo", neoRes.Store.DB().Health)
		tsrv.AddHealth("sparksee", sparkRes.Store.DB().Health)
		tsrv.AddQueryStats("serve", srv.QueryStats())
		tsrv.AddQueryStats("neo", neoRes.Store.DB().QueryStats())
		tsrv.AddQueryStats("sparksee", sparkRes.Store.DB().QueryStats())
		tsrv.AddTracer("neo", neoRes.Store.DB().Tracer())
		tsrv.AddTracer("sparksee", sparkRes.Store.DB().Tracer())
		tsrv.AddSessions("serve", func() any { return srv.Sessions() })
		tsrv.SetBuildInfo(map[string]string{
			"binary": "twiserve",
			"users":  fmt.Sprint(o.users),
		})
		taddr, tshutdown, err := tsrv.Serve(o.listen)
		if err != nil {
			return fail(err)
		}
		defer tshutdown()
		// Parsed by scrapers (and the CI smoke test) to find the port
		// when -listen :0 picked one.
		fmt.Printf("telemetry listening on %s\n", taddr)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fail(err)
	}
	// Parsed by clients and the CI smoke test (":0" picks a free port).
	fmt.Printf("twiserve listening on %s (engines: %s)\n",
		ln.Addr(), strings.Join(srv.EngineNames(), ", "))

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := shutdown.Context(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil {
			return fail(err)
		}
		return 0
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainBudget(o.cfg))
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "twiserve: drain:", err)
		return 1
	}
	if err := <-serveErr; err != nil {
		return fail(err)
	}
	if o.trace != "" {
		if err := writeTrace(o.trace, []obs.TraceProcess{
			{Name: "serve", Buf: srv.Trace()},
			{Name: "neo", Buf: neoRes.Store.DB().Trace()},
			{Name: "sparksee", Buf: sparkRes.Store.DB().Trace()},
		}); err != nil {
			return fail(err)
		}
	}
	fmt.Println("twiserve drained cleanly")
	return 0
}

// drainBudget leaves headroom past the server's own drain timeout so
// Shutdown, not the outer context, decides when to force-close.
func drainBudget(cfg serve.Config) time.Duration {
	d := cfg.DrainTimeout
	if d <= 0 {
		d = 10 * time.Second
	}
	return d + 5*time.Second
}

// probe is one read query the drive mode cycles through; everything is
// idempotent so the driver retries transport faults freely.
var probes = []struct {
	query  string
	params func(i int) map[string]any
}{
	{"followees", func(i int) map[string]any { return map[string]any{"uid": int64(1 + i%100)} }},
	{"users_over", func(i int) map[string]any { return map[string]any{"threshold": int64(3 + i%5)} }},
	{"hashtags_of_followees", func(i int) map[string]any { return map[string]any{"uid": int64(1 + i%50)} }},
	{"co_mentioned", func(i int) map[string]any { return map[string]any{"uid": int64(1 + i%50), "n": int64(5)} }},
	{"recommend_followees", func(i int) map[string]any { return map[string]any{"uid": int64(1 + i%25), "n": int64(5)} }},
}

type driveOpts struct {
	addr    string
	clients int
	iters   int
	seed    int64
	engines []string
	fault   bool
	trace   string
	inproc  bool
	users   int
}

func runDrive(o driveOpts) int {
	// -inproc: stand the server up inside this process. Client and
	// server trace buffers then share the process trace epoch, so the
	// exported timeline nests a driver attempt over its server-side
	// execution — the two-sided view a real deployment gets from
	// clock-synchronised hosts.
	var inprocTrace []obs.TraceProcess
	if o.inproc {
		dir, err := os.MkdirTemp("", "twiserve-inproc-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		neoRes, sparkRes, err := buildStores(dir, o.users, o.seed)
		if err != nil {
			return fail(err)
		}
		defer neoRes.Store.Close()
		srv := serve.NewServer(serve.Config{},
			serve.NewNeoEngine(neoRes.Store.DB()),
			serve.NewSparkEngine(sparkRes.Store.DB()))
		if o.trace != "" {
			srv.Trace().SetEnabled(true)
			enableStoreTracing(neoRes, sparkRes)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-serveErr
		}()
		o.addr = ln.Addr().String()
		fmt.Printf("in-process twiserve listening on %s\n", o.addr)
		inprocTrace = []obs.TraceProcess{
			{Name: "serve", Buf: srv.Trace()},
			{Name: "neo", Buf: neoRes.Store.DB().Trace()},
			{Name: "sparksee", Buf: sparkRes.Store.DB().Trace()},
		}
	}

	cfg := driver.Config{
		Addr:        o.addr,
		PoolSize:    o.clients,
		CallTimeout: 15 * time.Second,
		MaxRetries:  5,
		BaseBackoff: 5 * time.Millisecond,
		Seed:        o.seed,
	}
	if o.fault {
		// Under injected faults, lean on the retry budget harder.
		cfg.MaxRetries = 30
		cfg.Dial = faultconn.Dialer(faultconn.Config{
			Seed:             o.seed,
			ResetProb:        0.02,
			PartialWriteProb: 0.02,
			GarbageProb:      0.01,
			StallProb:        0.05,
			StallFor:         time.Millisecond,
		})
	}
	cli := driver.New(cfg)
	defer cli.Close()

	var driveBuf *obs.TraceBuffer
	if o.trace != "" {
		driveBuf = obs.NewTraceBuffer(0)
		driveBuf.SetEnabled(true)
		cli.SetTrace(driveBuf)
	}

	var calls, failures, rows atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < o.iters; i++ {
				p := probes[(w+i)%len(probes)]
				engine := o.engines[(w+i)%len(o.engines)]
				res, err := cli.Query(context.Background(), engine, p.query, p.params(w*o.iters+i))
				calls.Add(1)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "drive: worker %d %s/%s: %v\n", w, engine, p.query, err)
					continue
				}
				rows.Add(int64(len(res.Rows)))
			}
		}(w)
	}
	wg.Wait()

	snap := cli.Metrics().Snapshot()
	fmt.Printf("drive done: %d calls, %d failures, %d rows, %d retries, %d conns discarded\n",
		calls.Load(), failures.Load(), rows.Load(),
		snap.Counters["retries"], snap.Counters["conns_discarded"])
	printRetrySplit(snap.Histograms["call_latency_first_attempt"], snap.Histograms["call_latency_retried"])

	if o.trace != "" {
		procs := []obs.TraceProcess{{Name: "driver", Buf: driveBuf}}
		procs = append(procs, inprocTrace...)
		if err := writeTrace(o.trace, procs); err != nil {
			return fail(err)
		}
	}

	if failures.Load() > 0 && !o.fault {
		return 1
	}
	// Fault mode tolerates a small residue of exhausted retry budgets but
	// not wholesale failure.
	if o.fault && failures.Load()*5 > calls.Load() {
		return 1
	}
	return 0
}

// printRetrySplit renders the drive latency split by retry count: the
// gap between the two rows is what retry amplification costs a call.
func printRetrySplit(first, retried obs.HistogramSnapshot) {
	row := func(label string, h obs.HistogramSnapshot) {
		fmt.Printf("  %-14s calls=%-5d p50=%-10v p95=%-10v p999=%v\n", label, h.Count,
			time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P95).Round(time.Microsecond),
			time.Duration(h.P999).Round(time.Microsecond))
	}
	fmt.Println("latency by retry count:")
	row("first-attempt", first)
	row("retried", retried)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "twiserve:", err)
	if errors.Is(err, context.Canceled) {
		return 0
	}
	return 1
}
