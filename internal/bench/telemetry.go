package bench

import (
	"os"
	"strconv"

	"twigraph/internal/load"
	"twigraph/internal/obs"
	"twigraph/internal/qstats"
	"twigraph/internal/spmat"
	"twigraph/internal/telemetry"
)

// BuiltNeo returns the Neo4j-analog store if it has been built, nil
// otherwise. Unlike Neo() it never triggers a build and is safe to call
// from any goroutine — this is what the telemetry server scrapes while
// the bench goroutine is still importing.
func (e *Env) BuiltNeo() *load.NeoResult { return e.neoPub.Load() }

// BuiltSpark is BuiltNeo for the Sparksee-analog store.
func (e *Env) BuiltSpark() *load.SparkResult { return e.sparkPub.Load() }

// EnableTracing turns on span tracing and timeline capture for the
// session: engines built from now on start traced, and already-built
// engines are switched on in place.
func (e *Env) EnableTracing() {
	e.Trace = true
	if n := e.BuiltNeo(); n != nil {
		n.Store.DB().Tracer().SetEnabled(true)
		n.Store.DB().Trace().SetEnabled(true)
	}
	if s := e.BuiltSpark(); s != nil {
		s.Store.DB().Tracer().SetEnabled(true)
		s.Store.DB().Trace().SetEnabled(true)
	}
}

// Telemetry builds the session's telemetry server: the harness registry
// plus both engines' registries, tracers and health checks. Engine
// sources resolve lazily, so an engine built mid-session appears on
// /metrics from its next scrape; before that the scrape simply omits
// it.
func (e *Env) Telemetry() *telemetry.Server {
	srv := telemetry.NewServer()
	srv.AddRegistry("bench", e.Reg)
	srv.AddRegistryFunc("neo", func() *obs.Registry {
		if n := e.BuiltNeo(); n != nil {
			return n.Store.Obs()
		}
		return nil
	})
	srv.AddRegistryFunc("sparksee", func() *obs.Registry {
		if s := e.BuiltSpark(); s != nil {
			return s.Store.Obs()
		}
		return nil
	})
	srv.AddTracerFunc("neo", func() *obs.Tracer {
		if n := e.BuiltNeo(); n != nil {
			return n.Store.Tracer()
		}
		return nil
	})
	srv.AddTracerFunc("sparksee", func() *obs.Tracer {
		if s := e.BuiltSpark(); s != nil {
			return s.Store.Tracer()
		}
		return nil
	})
	srv.AddHealth("neo", func() error {
		if n := e.BuiltNeo(); n != nil {
			return n.Store.DB().Health()
		}
		return nil // not built yet is healthy, not degraded
	})
	srv.AddHealth("sparksee", func() error {
		if s := e.BuiltSpark(); s != nil {
			return s.Store.DB().Health()
		}
		return nil
	})
	srv.AddQueryStatsFunc("neo", func() *qstats.Stats {
		if n := e.BuiltNeo(); n != nil {
			return n.Store.DB().QueryStats()
		}
		return nil
	})
	srv.AddQueryStatsFunc("sparksee", func() *qstats.Stats {
		if s := e.BuiltSpark(); s != nil {
			return s.Store.DB().QueryStats()
		}
		return nil
	})
	srv.SetBuildInfo(map[string]string{
		"engine":  "neo,sparksee",
		"profile": spmat.Faithful.String(),
		"users":   strconv.Itoa(e.Cfg.Users),
	})
	return srv
}

// TraceProcesses returns the built engines' trace buffers labelled for
// a merged Chrome-trace export.
func (e *Env) TraceProcesses() []obs.TraceProcess {
	var procs []obs.TraceProcess
	if n := e.BuiltNeo(); n != nil {
		procs = append(procs, obs.TraceProcess{Name: "neo", Buf: n.Store.DB().Trace()})
	}
	if s := e.BuiltSpark(); s != nil {
		procs = append(procs, obs.TraceProcess{Name: "sparksee", Buf: s.Store.DB().Trace()})
	}
	return procs
}

// WriteChromeTrace exports every engine's captured timeline as one
// Chrome trace-event JSON file loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing.
func (e *Env) WriteChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, e.TraceProcesses()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
