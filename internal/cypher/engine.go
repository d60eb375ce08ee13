package cypher

import (
	"context"
	"sync"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/qstats"
	"twigraph/internal/spmat"
)

// Engine executes queries against a neodb database. It owns the plan
// cache: parameterised query texts compile once and reuse their plans,
// the speedup source the paper highlights. The cache can be disabled to
// measure recompilation cost (ablation B).
type Engine struct {
	db *neodb.DB

	mu          sync.Mutex
	cache       map[string]*Prepared
	cacheOn     bool
	cacheHits   uint64
	cacheMisses uint64
	matrix      matrixMode
	workers     int  // goroutines a label scan or projection may fork
	prune       bool // label scans prune their candidates with schema indexes

	spm  *spmat.Metrics
	parm par.Metrics
}

// NewEngine creates an engine with the plan cache enabled, running the
// Tuned profile.
func NewEngine(db *neodb.DB) *Engine {
	e := &Engine{db: db, cache: make(map[string]*Prepared), cacheOn: true,
		spm: spmat.MetricsFrom(db.Obs()), parm: par.MetricsFrom(db.Obs())}
	e.parm.Trace = db.Trace()
	e.SetProfile(spmat.Tuned)
	return e
}

// SetProfile selects how a plan executes. Tuned gates each eligible
// var-length expansion on its frontier density, running dense ones as
// the algebraic row-gather of internal/spmat, splits large label scans
// and projections into morsels run on GOMAXPROCS workers, and lets a
// label scan with a comparison on an indexed property scan only the
// nodes the schema index holds under passing values. Faithful always
// runs the DFS enumeration and the full label scan, on one goroutine,
// as Neo4j 2.2 (no range seek) did. Plans are unaffected — the choice
// is per-execution state, so cached plans honour the current setting.
func (e *Engine) SetProfile(p spmat.Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.matrix, e.workers, e.prune = matrixGated, par.Workers(0), true
	if p == spmat.Faithful {
		e.matrix, e.workers, e.prune = matrixOff, 1, false
	}
}

func (e *Engine) setMatrixMode(m matrixMode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.matrix = m
}

func (e *Engine) mode() (matrixMode, int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.matrix, e.workers, e.prune
}

// DB returns the underlying database.
func (e *Engine) DB() *neodb.DB { return e.db }

// SetPlanCache enables or disables the plan cache (clearing it when
// disabling).
func (e *Engine) SetPlanCache(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheOn = on
	if !on {
		e.cache = make(map[string]*Prepared)
	}
}

// CacheStats returns plan-cache hit and miss counts.
func (e *Engine) CacheStats() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheHits, e.cacheMisses
}

// Result is a materialised query result.
type Result struct {
	Columns []string
	Rows    [][]any
	Profile *ProfileInfo // non-nil for PROFILE queries
}

// ProfileInfo is the execution profile of a PROFILE query: per-stage
// operator breakdowns, row counts, db hits and wall time — the
// introspection the paper uses to rephrase queries "for the least
// number of database hits".
type ProfileInfo struct {
	Stages      []StageProfile
	TotalDBHits uint64
	PlanCached  bool
	Compile     time.Duration
	Execute     time.Duration
	// Root is the root span's wall time for the whole execution; the
	// per-stage Elapsed values sum to (at most) this, the remainder
	// being row materialisation outside any stage.
	Root time.Duration
}

// StageProfile profiles one pipeline stage.
type StageProfile struct {
	Name    string
	Ops     []OperatorProfile // per-operator breakdown (match stages)
	Rows    int               // rows produced
	DBHits  uint64
	Elapsed time.Duration // cumulative stage wall time
	// Self is the stage time not attributed to any operator — loop
	// overhead, row widening, WHERE conjuncts tested before the first
	// operator. For stages without an operator breakdown, Self equals
	// Elapsed.
	Self time.Duration
}

// OperatorProfile is one operator's share of a stage: its wall time,
// db hits and rows produced, accumulated across every input row the
// stage pushed through it.
type OperatorProfile struct {
	Name    string
	Rows    int
	DBHits  uint64
	Elapsed time.Duration
	// Index names the schema index, as ":label(key)", that pruned a
	// NodeByLabelScan's candidates to Candidates nodes; it is empty
	// when the scan read every node of the label.
	Index      string
	Candidates int
}

// Query parses (or reuses) and executes a query.
func (e *Engine) Query(query string, params map[string]graph.Value) (*Result, error) {
	return e.QueryCtx(nil, query, params)
}

// QueryCtx is Query bounded by ctx: execution polls the context at row
// granularity and aborts with a wrapped context error once it is
// cancelled or past its deadline. The abort is counted into the
// engine's queries_cancelled / queries_timed_out counters. A nil ctx
// never aborts.
func (e *Engine) QueryCtx(ctx context.Context, query string, params map[string]graph.Value) (*Result, error) {
	prep, cached, compileTime, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, prep, params, cached, compileTime)
}

// Prepare compiles a query (or fetches it from the plan cache) without
// executing it.
func (e *Engine) Prepare(query string) (*Prepared, error) {
	prep, _, _, err := e.prepare(query)
	return prep, err
}

// Execute runs a previously prepared plan.
func (e *Engine) Execute(prep *Prepared, params map[string]graph.Value) (*Result, error) {
	return e.execute(nil, prep, params, true, 0)
}

// ExecuteCtx runs a previously prepared plan bounded by ctx, with
// QueryCtx's abort semantics.
func (e *Engine) ExecuteCtx(ctx context.Context, prep *Prepared, params map[string]graph.Value) (*Result, error) {
	return e.execute(ctx, prep, params, true, 0)
}

func (e *Engine) prepare(query string) (*Prepared, bool, time.Duration, error) {
	e.mu.Lock()
	if e.cacheOn {
		if prep, ok := e.cache[query]; ok {
			e.cacheHits++
			e.mu.Unlock()
			return prep, true, 0, nil
		}
		e.cacheMisses++
	}
	e.mu.Unlock()

	start := time.Now()
	ast, err := Parse(query)
	if err != nil {
		return nil, false, 0, err
	}
	prep, err := compile(e.db, ast, query)
	if err != nil {
		return nil, false, 0, err
	}
	// Model the cost of planning: parsing and compilation already cost
	// real work above; nothing is simulated.
	compileTime := time.Since(start)

	e.mu.Lock()
	if e.cacheOn {
		e.cache[query] = prep
	}
	e.mu.Unlock()
	return prep, false, compileTime, nil
}

func (e *Engine) execute(ctx context.Context, prep *Prepared, params map[string]graph.Value, cached bool, compileTime time.Duration) (*Result, error) {
	ec := &execCtx{db: e.db, rd: e.db.Reader(), ctx: ctx, params: params, profileOps: prep.profiled,
		spm: e.spm, parm: e.parm, buf: batchPool.Get().(*batchBufs)}
	ec.matrix, ec.workers, ec.prune = e.mode()
	e.db.HoldReader()
	defer e.db.ReleaseReader()
	defer ec.rd.Close()
	defer ec.buf.release()
	res := &Result{Columns: prep.columns}
	var prof *ProfileInfo
	if prep.profiled {
		prof = &ProfileInfo{PlanCached: cached, Compile: compileTime}
	}

	// Workload attribution: reuse the query ID an outer layer (the
	// store wrapper) put on the context, or allocate one for ad-hoc
	// executions (twiql, direct engine callers). The execution is
	// recorded into the engine's per-fingerprint statistics unless the
	// outer layer marked itself as the accounting site — the guard that
	// keeps one store query from counting twice.
	stats := e.db.QueryStats()
	qid := qstats.QueryID(ctx)
	if qid == 0 {
		qid = qstats.NextQueryID()
	}
	account := !qstats.Accounted(ctx)
	var handle qstats.Handle
	var qstart time.Time
	if account {
		handle = stats.Begin()
		qstart = time.Now()
	}

	// PROFILE and tracing share one mechanism: a root span for the query
	// with one child span per pipeline stage. Stage db hits are the
	// span's watched record-fetch delta, so the profiler reports exactly
	// what the engine registry counted. When the tracer is enabled the
	// root span also feeds the slow-query log; when the trace buffer is
	// enabled, every span becomes a timeline event.
	tr := e.db.Tracer()
	// Accounting-suppressed executions with no enclosing span (a silent
	// replay of a retried wire query) trace nothing: a root span here
	// would put a second slow-ring entry under the same query ID.
	traced := prof != nil || (tr.Enabled() && (account || tr.InSpan()))
	var root *obs.Span
	if traced {
		root = tr.Start("cypher: " + prep.text)
		root.SetQuery(qid, prep.fp.Hash)
	}

	rows := []row{{}}
	execStart := time.Now()
	for _, st := range prep.stages {
		var span *obs.Span
		if traced {
			span = tr.Start(st.name())
		}
		ec.ops = nil
		var err error
		rows, err = st.run(ec, rows)
		if span != nil {
			span.SetStatus(obs.StatusFromError(err))
			span.SetRows(len(rows))
			span.Finish()
		}
		if err != nil {
			if root != nil {
				root.SetStatus(obs.StatusFromError(err))
				root.Finish()
			}
			if account {
				stats.Record(prep.fp, time.Since(qstart), 0, obs.StatusFromError(err), handle)
			}
			return nil, err
		}
		if prof != nil {
			sp := StageProfile{
				Name:    st.name(),
				Rows:    len(rows),
				DBHits:  span.Delta(obs.CRecordFetches),
				Elapsed: span.Duration(),
			}
			sp.Self = sp.Elapsed
			for _, op := range ec.ops {
				sp.Ops = append(sp.Ops, OperatorProfile{
					Name: op.name, Rows: op.rows, DBHits: op.dbHits, Elapsed: op.elapsed,
					Index: op.index, Candidates: op.cands,
				})
				sp.Self -= op.elapsed
			}
			if sp.Self < 0 {
				sp.Self = 0
			}
			prof.Stages = append(prof.Stages, sp)
		}
	}
	if len(rows) > 0 {
		res.Rows = make([][]any, len(rows))
		for i, r := range rows {
			res.Rows[i] = r
		}
	}
	if root != nil {
		root.SetRows(len(res.Rows))
		root.Finish()
		if prof != nil {
			prof.TotalDBHits = root.Delta(obs.CRecordFetches)
			prof.Root = root.Duration()
		}
	}
	if prof != nil {
		prof.Execute = time.Since(execStart)
		res.Profile = prof
	}
	if account {
		stats.Record(prep.fp, time.Since(qstart), len(res.Rows), obs.StatusCompleted, handle)
	}
	return res, nil
}
