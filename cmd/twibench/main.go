// Command twibench regenerates the paper's tables and figures: it
// builds the dataset and both engines, then runs the selected
// experiment (or all of them) and prints paper-style reports. The
// stores it builds run the Faithful profile (one query at a time,
// Cypher on neodb, navigation on sparkdb), the configuration the paper
// measured.
//
// Usage:
//
//	twibench -exp all
//	twibench -exp fig4a -users 8000
//	twibench -list
//	twibench -exp table2 -listen :9090         # live /metrics while running
//	twibench -exp fig4a -trace trace.json      # Perfetto timeline export
//	twibench -exp all -json new.json -compare old.json -regress 25 -floor 2ms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"twigraph/internal/bench"
	"twigraph/internal/qstats"
	"twigraph/internal/shutdown"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	work := flag.String("work", "", "working directory (default: a temp dir)")
	jsonPath := flag.String("json", "", "write a machine-readable snapshot (latency histograms + engine counters) to this path")
	timeout := flag.Duration("timeout", 0, "per-query deadline; timed-out queries abort and count into queries_timed_out (0 = unbounded)")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /slow, pprof) on this address while the bench runs")
	trace := flag.String("trace", "", "capture span timelines and write a Chrome trace-event file (Perfetto-loadable) to this path")
	compare := flag.String("compare", "", "diff this run's latencies against a prior -json snapshot at this path")
	regress := flag.Float64("regress", 0, "with -compare: exit non-zero when any series' p50/p95 (or, with -qstats, any statement's mean) grew more than this percent (0 = warn-only)")
	floor := flag.Duration("floor", 0, "with -regress: series whose baseline p50 is under this duration report deltas but never gate (noise floor for sub-millisecond series)")
	qstatsTop := flag.Bool("qstats", false, "print per-statement statistics after the run and fold them into the -json snapshot")
	sfmax := flag.Float64("sfmax", 0, "scale experiment: largest scale factor to sweep (0 = the experiment default, 1 = full grid)")
	cfg := bench.DefaultConfig()
	flag.IntVar(&cfg.Users, "users", cfg.Users, "dataset scale in users")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "dataset PRNG seed")
	flag.Parse()

	if *list {
		for _, ex := range bench.All() {
			fmt.Printf("  %-12s %s\n", ex.ID, ex.Title)
		}
		return
	}

	dir := *work
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "twibench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	env := bench.NewEnv(cfg, dir)
	env.QueryTimeout = *timeout
	env.QueryStats = *qstatsTop
	env.SFMax = *sfmax
	defer env.Close()

	if *trace != "" {
		env.EnableTracing()
	}
	if *listen != "" {
		addr, shutdown, err := env.Telemetry().Serve(*listen)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		// Parsed by scrapers (and the CI smoke test) to find the port
		// when -listen :0 picked one.
		fmt.Printf("telemetry listening on %s\n", addr)
	}

	experiment := *exp
	if experiment == "all" {
		if err := bench.RunAll(env, os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		ex, err := bench.Lookup(experiment)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== %s — %s ===\n\n", ex.ID, ex.Title)
		if err := ex.Run(env, os.Stdout); err != nil {
			fatal(err)
		}
		experiment = ex.ID
	}
	if *qstatsTop {
		printQueryStats(env.Snapshot(experiment).QueryStats)
	}
	writeSnapshot(env, experiment, *jsonPath)
	if *trace != "" {
		if err := env.WriteChromeTrace(*trace); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (load it at ui.perfetto.dev)\n", *trace)
	}
	if *compare != "" {
		old, err := bench.ReadSnapshot(*compare)
		if err != nil {
			fatal(err)
		}
		report := bench.CompareFloor(old, env.Snapshot(experiment), *regress, float64(floor.Nanoseconds()))
		fmt.Printf("\n=== latency vs %s ===\n\n%s", *compare, report.Format())
		if report.RegressionCount() > 0 && *regress > 0 {
			fatal(fmt.Errorf("latency regression past %.1f%% threshold", *regress))
		}
	}
	if *listen != "" {
		// Keep the final counters scrapeable until signalled, then exit 0
		// through the shared drain path so SIGTERM (systemd, CI, docker
		// stop) terminates the process cleanly instead of relying on a
		// hard kill; a second signal force-exits. The handler is
		// registered before the banner: a signal sent as soon as the
		// banner appears must already take the drain path.
		ctx, stop := shutdown.Context(context.Background())
		fmt.Println("\nexperiments done; telemetry stays up until interrupted")
		<-ctx.Done()
		stop()
	}
}

// printQueryStats renders each engine's statement table, engines in
// stable name order.
func printQueryStats(stats map[string][]qstats.StatSnapshot) {
	engines := make([]string, 0, len(stats))
	for name := range stats {
		engines = append(engines, name)
	}
	sort.Strings(engines)
	for _, name := range engines {
		fmt.Printf("\n=== query statistics — %s ===\n\n%s", name, qstats.FormatTop(stats[name]))
	}
}

func writeSnapshot(env *bench.Env, experiment, path string) {
	if path == "" {
		return
	}
	if err := bench.WriteSnapshot(path, env.Snapshot(experiment)); err != nil {
		fatal(err)
	}
	fmt.Printf("\nsnapshot written to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twibench:", err)
	os.Exit(1)
}
