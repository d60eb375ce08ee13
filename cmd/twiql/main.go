// Command twiql is an interactive shell for the Neo4j-analog engine's
// declarative query language. Point it at a database directory built by
// twiload (or let it bootstrap a demo dataset) and type queries;
// prefix a query with PROFILE to see the plan, db hits and timing.
//
// Lines starting with ':' are shell commands rather than queries:
// :stats dumps the engine's observability registry, :top [n] shows the
// per-statement statistics table (pg_stat_statements-style; same
// literals collapse to one fingerprint), :log <level>|off streams the
// engine's structured JSON log to the shell, :trace on|off
// toggles span tracing (each traced query prints its span tree),
// :trace export <file> writes the captured timeline as a Chrome
// trace-event file (load at ui.perfetto.dev), :serve <addr> starts the
// telemetry HTTP server (/metrics, /healthz, /slow, /querystats,
// pprof), :slow shows the slow-query log, :reset zeroes the counters,
// :timeout <dur>|off bounds each query by a deadline (timed-out
// queries abort gracefully and count into queries_timed_out).
//
// The engine runs the Tuned profile: a var-length expansion over a
// dense frontier runs as the algebraic row-gather, a sparse one as the
// DFS enumeration.
//
// Usage:
//
//	twiql -db dbs/neo
//	twiql -demo          # generate and import a small dataset first
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"twigraph/internal/cypher"
	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/qstats"
	"twigraph/internal/telemetry"
)

// shell is the REPL's mutable state: the open database, its query
// engine, the per-query deadline set with :timeout, and the telemetry
// server started by :serve (nil until then).
type shell struct {
	db       *neodb.DB
	engine   *cypher.Engine
	timeout  time.Duration
	shutdown func() error
}

func main() {
	dbDir := flag.String("db", "", "neodb database directory")
	demo := flag.Bool("demo", false, "bootstrap a demo dataset in a temp dir")
	flag.Parse()

	var db *neodb.DB
	switch {
	case *demo:
		dir, err := os.MkdirTemp("", "twiql-demo-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Println("generating and importing a demo dataset...")
		cfg := gen.Default()
		cfg.Users = 1000
		if _, err := gen.GenerateStream(cfg, filepath.Join(dir, "csv")); err != nil {
			fatal(err)
		}
		res, err := load.BuildNeo(filepath.Join(dir, "csv"), filepath.Join(dir, "neo"), neodb.Config{}, 0)
		if err != nil {
			fatal(err)
		}
		db = res.Store.DB()
	case *dbDir != "":
		var err error
		db, err = neodb.Open(*dbDir, neodb.Config{})
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "twiql: need -db <dir> or -demo")
		os.Exit(2)
	}
	defer db.Close()

	sh := &shell{db: db, engine: cypher.NewEngine(db)}
	queryHist := db.Obs().Histogram("repl_query")
	fmt.Println(`twiql — type a query ending with ';', :help for shell commands, \q to quit.`)
	fmt.Println(`example: MATCH (u:user {uid: 1})-[:follows]->(f) RETURN f.uid LIMIT 5;`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	fmt.Print("twiql> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == `\q` {
			return
		}
		if pending.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), ":") {
			sh.runMeta(os.Stdout, strings.TrimSpace(line))
			fmt.Print("twiql> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("   ..> ")
			continue
		}
		query := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
		pending.Reset()
		if query != "" {
			if d := sh.runQuery(os.Stdout, query); d > 0 {
				queryHist.Observe(int64(d))
			}
			if db.Tracer().Enabled() {
				if log := db.Tracer().SlowLog(); len(log) > 0 {
					fmt.Print(log[len(log)-1].Format())
				}
			}
		}
		fmt.Print("twiql> ")
	}
}

// runMeta executes a ':'-prefixed shell command.
func (sh *shell) runMeta(w io.Writer, line string) {
	db := sh.db
	fields := strings.Fields(line)
	switch fields[0] {
	case ":help":
		fmt.Fprintln(w, "  :stats           dump the engine's counters, gauges and histograms")
		fmt.Fprintln(w, "  :top [n]         show per-statement statistics (most expensive first)")
		fmt.Fprintln(w, "  :log level|off   stream the engine's structured JSON log here (debug|info|warn|error)")
		fmt.Fprintln(w, "  :trace on|off    toggle span tracing (traced queries print their span tree)")
		fmt.Fprintln(w, "  :trace export f  write captured spans as a Chrome trace (Perfetto-loadable)")
		fmt.Fprintln(w, "  :serve addr      start the telemetry HTTP server (/metrics, /healthz, /slow, pprof)")
		fmt.Fprintln(w, "  :slow            show the slow-query log (most recent last)")
		fmt.Fprintln(w, "  :reset           zero all counters and histograms")
		fmt.Fprintln(w, "  :timeout d|off   bound each query by a deadline (e.g. :timeout 500ms)")
		fmt.Fprintln(w, `  \q               quit`)
	case ":stats":
		fmt.Fprint(w, db.Obs().Snapshot().Format())
	case ":top":
		top := 0
		if len(fields) == 2 {
			if _, err := fmt.Sscanf(fields[1], "%d", &top); err != nil || top < 1 {
				fmt.Fprintln(w, "usage: :top [n]")
				return
			}
		} else if len(fields) > 2 {
			fmt.Fprintln(w, "usage: :top [n]")
			return
		}
		snaps := db.QueryStats().TopK(top)
		if len(snaps) == 0 {
			fmt.Fprintln(w, "no statements recorded yet")
			return
		}
		fmt.Fprint(w, qstats.FormatTop(snaps))
		if ev := db.QueryStats().Evictions(); ev > 0 {
			fmt.Fprintf(w, "(%d fingerprints evicted by the registry bound)\n", ev)
		}
	case ":log":
		if len(fields) != 2 {
			fmt.Fprintf(w, "log level is %s (usage: :log debug|info|warn|error|off)\n", db.Logger().Level())
			return
		}
		if err := db.Logger().SetLevel(fields[1]); err != nil {
			fmt.Fprintln(w, "error:", err)
			return
		}
		// Interleave log lines with results instead of stderr.
		db.Logger().SetOutput(w)
		fmt.Fprintf(w, "log level %s\n", db.Logger().Level())
	case ":trace":
		if len(fields) == 3 && fields[1] == "export" {
			f, err := os.Create(fields[2])
			if err != nil {
				fmt.Fprintln(w, "error:", err)
				return
			}
			procs := []obs.TraceProcess{{Name: "neo", Buf: db.Trace()}}
			if err := obs.WriteChromeTrace(f, procs); err != nil {
				f.Close()
				fmt.Fprintln(w, "error:", err)
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(w, "error:", err)
				return
			}
			fmt.Fprintf(w, "%d trace events written to %s (load at ui.perfetto.dev)\n",
				db.Trace().Len(), fields[2])
			return
		}
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			fmt.Fprintln(w, "usage: :trace on|off | :trace export <file>")
			return
		}
		on := fields[1] == "on"
		db.Tracer().SetEnabled(on)
		db.Trace().SetEnabled(on)
		if on {
			// Capture every query while interactive tracing is on.
			db.Tracer().SetSlowThreshold(0)
		}
		fmt.Fprintln(w, "tracing", fields[1])
	case ":serve":
		if len(fields) != 2 {
			fmt.Fprintln(w, "usage: :serve <addr> (e.g. :serve localhost:9090)")
			return
		}
		if sh.shutdown != nil {
			fmt.Fprintln(w, "telemetry server already running (one per session)")
			return
		}
		srv := telemetry.NewServer()
		srv.AddRegistry("neo", db.Obs())
		srv.AddTracer("neo", db.Tracer())
		srv.AddHealth("neo", db.Health)
		srv.AddQueryStats("neo", db.QueryStats())
		addr, shutdown, err := srv.Serve(fields[1])
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return
		}
		sh.shutdown = shutdown
		fmt.Fprintf(w, "telemetry listening on %s (/metrics, /healthz, /slow, /querystats, /debug/pprof/)\n", addr)
	case ":slow":
		log := db.Tracer().SlowLog()
		if len(log) == 0 {
			fmt.Fprintln(w, "slow-query log is empty (enable with :trace on)")
			return
		}
		for _, snap := range log {
			fmt.Fprint(w, snap.Format())
		}
	case ":reset":
		db.ResetCounters()
		db.Tracer().ClearSlowLog()
		fmt.Fprintln(w, "counters reset")
	case ":timeout":
		if len(fields) != 2 {
			if sh.timeout > 0 {
				fmt.Fprintf(w, "query timeout is %v\n", sh.timeout)
			} else {
				fmt.Fprintln(w, "query timeout is off")
			}
			return
		}
		if fields[1] == "off" {
			sh.timeout = 0
			fmt.Fprintln(w, "query timeout off")
			return
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d <= 0 {
			fmt.Fprintln(w, "usage: :timeout <duration>|off (e.g. :timeout 500ms)")
			return
		}
		sh.timeout = d
		fmt.Fprintf(w, "query timeout %v\n", d)
	default:
		fmt.Fprintf(w, "unknown command %s (try :help)\n", fields[0])
	}
}

func (sh *shell) runQuery(w io.Writer, query string) time.Duration {
	var ctx context.Context
	if sh.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), sh.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sh.engine.QueryCtx(ctx, query, nil)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return 0
	}
	elapsed := time.Since(start)

	fmt.Fprintln(w, strings.Join(res.Columns, " | "))
	const maxRows = 50
	for i, row := range res.Rows {
		if i >= maxRows {
			fmt.Fprintf(w, "... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = fmt.Sprint(c)
		}
		fmt.Fprintln(w, strings.Join(cells, " | "))
	}
	fmt.Fprintf(w, "%d rows in %v\n", len(res.Rows), elapsed)
	if res.Profile != nil {
		p := res.Profile
		fmt.Fprintf(w, "profile: %d db hits, compile %v, execute %v, root span %v, plan cached: %v\n",
			p.TotalDBHits, p.Compile, p.Execute, p.Root, p.PlanCached)
		fmt.Fprintf(w, "  %-22s %8s %10s %12s %12s\n", "stage / operator", "rows", "db hits", "elapsed", "self")
		for _, st := range p.Stages {
			fmt.Fprintf(w, "  %-22s %8d %10d %12v %12v\n", st.Name, st.Rows, st.DBHits, st.Elapsed, st.Self)
			for _, op := range st.Ops {
				fmt.Fprintf(w, "    -> %-19s %8d %10d %12v\n", op.Name, op.Rows, op.DBHits, op.Elapsed)
				if op.Index != "" {
					fmt.Fprintf(w, "       pruned by index %s to %d candidates\n", op.Index, op.Candidates)
				}
			}
		}
	}
	return elapsed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twiql:", err)
	os.Exit(1)
}
