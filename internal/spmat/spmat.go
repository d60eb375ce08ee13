// Package spmat is the algebraic execution layer: sparse matrix
// kernels over adjacency rows stored as bitmap.Bitmap, the third
// execution method next to each engine's navigational API and the
// declarative Cypher plans. The 2-hop workload queries (co-occurrence,
// recommendation, influence) are one row of a masked SpGEMM — gather
// the adjacency rows selected by a weighted frontier vector and sum
// them into a dense accumulator — and the BFS queries are repeated
// masked SpMV with direction-optimizing push/pull selection.
//
// Engines adapt their adjacency storage to the Source interface.
// Sources either lend their materialised neighbor rows zero-copy
// (sparkdb's neighbor index) or stream a row's edges in record order
// (sparkdb's link+endpoint arrays, neodb's relationship chains), so
// the kernels hit each engine's storage in its cheapest access order.
// The package is stdlib-only and composes with internal/par: callers
// shard frontier row-ranges across workers and the merges are
// commutative sums or set unions, keeping results identical at every
// worker count.
package spmat

import (
	"sort"
	"sync"

	"twigraph/internal/bitmap"
	"twigraph/internal/obs"
	"twigraph/internal/par"
)

// Profile names one execution configuration of the multi-hop workload
// queries (Q3.1–Q6.1). Both engines and the Cypher engine default to
// Tuned; the paper-reproduction harness sets Faithful.
type Profile uint8

const (
	// Tuned lets the density gate pick navigational or algebraic
	// execution per hop and shards each query across GOMAXPROCS
	// workers.
	Tuned Profile = iota
	// Faithful runs what the paper measured, one worker per query:
	// Cypher on neodb (var-length expansions by DFS) and
	// Sparksee-style navigation on sparkdb.
	Faithful
)

// String renders the profile name.
func (p Profile) String() string {
	if p == Faithful {
		return "faithful"
	}
	return "tuned"
}

// Row is one adjacency-matrix row. Cols is the distinct-neighbor set,
// lent by the source when it materialises neighbor rows — callers must
// treat it as read-only and not retain it past the current query (the
// single-writer engines guarantee no concurrent mutation during reads).
// A nil Cols means the source has no cheap row form and callers should
// stream ForEachEdge instead. Edges is the number of stored edges
// behind the row; Edges > |Cols| means parallel edges exist and
// per-neighbor weights are not uniform.
type Row struct {
	Cols  *bitmap.Bitmap
	Edges int
}

// Source is one (edge type, direction) adjacency operator over an
// engine's storage. Implementations must be safe for concurrent reads.
type Source interface {
	// Row returns row id — the neighbor set reachable over one edge.
	Row(id uint64) Row
	// ForEachEdge streams the far endpoint of every stored edge of row
	// id in the engine's record order, repeating parallel edges. The
	// callback returns false to stop early. The returned error is the
	// engine's read-path error, if any.
	ForEachEdge(id uint64, fn func(col uint64) bool) error
}

// WeightedID is one frontier entry: a row id and its path multiplicity.
type WeightedID struct {
	ID uint64
	W  int64
}

// Lender is an optional Source extension: sources whose Row lends
// materialised neighbor bitmaps report it here, so kernels whose cost
// model depends on row access cost (the BFS pull side probes one row
// per unvisited candidate) can tell cheap lent rows from streamed
// chain walks.
type Lender interface {
	Lends() bool
}

// Lends reports whether src lends materialised rows.
func Lends(src Source) bool {
	l, ok := src.(Lender)
	return ok && l.Lends()
}

// EstimateFrontier returns a cheap upper bound on the cardinality of
// row id's frontier, without materialising it: the lent row's exact
// distinct count when the source lends rows, else the source's stored
// edge count (parallel edges overestimate, which only errs toward the
// algebraic side — the exact gate re-checks the materialised frontier).
// Auto-gated callers consult it before paying for a frontier build
// they might immediately discard on a navigational decision.
func EstimateFrontier(src Source, id uint64) int {
	r := src.Row(id)
	if r.Cols != nil {
		return r.Cols.Cardinality()
	}
	return r.Edges
}

// Counter names for plan-choice and kernel-round observability,
// registered on each engine's registry.
const (
	// CNavHops counts gated hops executed navigationally.
	CNavHops = "exec_nav_hops"
	// CMatrixHops counts gated hops executed algebraically.
	CMatrixHops = "exec_matrix_hops"
	// CPushRounds counts BFS levels expanded with the push SpMV
	// (frontier-row union).
	CPushRounds = "spmv_push_rounds"
	// CPullRounds counts BFS levels expanded with the pull SpMV
	// (reverse-row probes against the frontier mask).
	CPullRounds = "spmv_pull_rounds"
)

// Metrics mirrors plan decisions and kernel activity into an engine's
// observability registry. A nil *Metrics records nothing.
type Metrics struct {
	NavHops    *obs.Counter
	MatrixHops *obs.Counter
	PushRounds *obs.Counter
	PullRounds *obs.Counter
}

// MetricsFrom registers (or finds) the algebraic-execution counters on
// a registry.
func MetricsFrom(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		NavHops:    reg.Counter(CNavHops),
		MatrixHops: reg.Counter(CMatrixHops),
		PushRounds: reg.Counter(CPushRounds),
		PullRounds: reg.Counter(CPullRounds),
	}
}

func (m *Metrics) navHop() {
	if m != nil {
		m.NavHops.Inc()
	}
}

func (m *Metrics) matrixHop() {
	if m != nil {
		m.MatrixHops.Inc()
	}
}

func (m *Metrics) pushRound() {
	if m != nil {
		m.PushRounds.Inc()
	}
}

func (m *Metrics) pullRound() {
	if m != nil {
		m.PullRounds.Inc()
	}
}

// CountHop records one gated hop's plan decision.
func (m *Metrics) CountHop(matrix bool) {
	if matrix {
		m.matrixHop()
	} else {
		m.navHop()
	}
}

// Accum is the dense accumulator one SpGEMM row-gather sums into:
// counts indexed by (column id - base), plus the list of touched
// columns so reset and iteration cost O(touched), not O(universe).
// base anchors the id space — engines with typed id ranges (sparkdb
// OIDs carry the type in their top bits) pass the candidate type's
// first id so the dense array spans only that type's sequence range.
// All added columns must be >= base. Reusing an Accum across queries
// through an AccumPool makes the add/merge/reset cycle allocation-free
// once the counts array has grown to the candidate range.
type Accum struct {
	base   uint64
	counts []int64
	dirty  []uint64

	// w and addFn are the reusable per-edge accumulation callback: the
	// closure binds once per Accum lifetime (not per row), so pooled
	// accumulators keep the gather loops allocation-free in steady
	// state — the property the zero-alloc test pins.
	w     int64
	addFn func(col uint64) bool
}

// edgeAdd returns the cached callback adding the current row weight
// (a.w) to each streamed column.
func (a *Accum) edgeAdd() func(col uint64) bool {
	if a.addFn == nil {
		a.addFn = func(col uint64) bool {
			a.Add(col, a.w)
			return true
		}
	}
	return a.addFn
}

// Reset prepares the accumulator for a new gather over columns >= base:
// previously touched counts are zeroed and the touched list cleared.
func (a *Accum) Reset(base uint64) {
	for _, c := range a.dirty {
		a.counts[c-a.base] = 0
	}
	a.dirty = a.dirty[:0]
	a.base = base
}

// Add accumulates w into column col.
func (a *Accum) Add(col uint64, w int64) {
	i := col - a.base
	if i >= uint64(len(a.counts)) {
		a.grow(i)
	}
	if a.counts[i] == 0 {
		a.dirty = append(a.dirty, col)
	}
	a.counts[i] += w
}

func (a *Accum) grow(i uint64) {
	n := uint64(len(a.counts))*2 + 64
	if n <= i {
		n = i + 1
	}
	grown := make([]int64, n)
	copy(grown, a.counts)
	a.counts = grown
}

// AddRow accumulates w into every column of a uniform row — the fast
// path when a lent neighbor row has no parallel edges.
func (a *Accum) AddRow(cols *bitmap.Bitmap, w int64) {
	a.w = w
	cols.ForEach(a.edgeAdd())
}

// Merge folds another accumulator (same base) into this one.
func (a *Accum) Merge(o *Accum) {
	for _, col := range o.dirty {
		a.Add(col, o.counts[col-o.base])
	}
}

// Len returns the number of touched columns.
func (a *Accum) Len() int { return len(a.dirty) }

// Touched lends the touched-column list in touch order, read-only and
// valid until the next Reset — the shardable form of ForEach, for
// callers that fan result materialisation out across workers.
func (a *Accum) Touched() []uint64 { return a.dirty }

// Count returns col's accumulated count (zero for untouched columns).
func (a *Accum) Count(col uint64) int64 {
	i := col - a.base
	if i >= uint64(len(a.counts)) {
		return 0
	}
	return a.counts[i]
}

// ForEach visits every touched column and its count, in touch order.
// The order is not deterministic across worker counts — callers
// ranking results must sort on a total order (the workload's
// count-desc, id-asc ranking is one).
func (a *Accum) ForEach(fn func(col uint64, count int64)) {
	for _, col := range a.dirty {
		fn(col, a.counts[col-a.base])
	}
}

// AccumPool recycles accumulators so steady-state gathers allocate
// nothing once grown.
type AccumPool struct {
	pool sync.Pool
}

// Get returns a reset accumulator anchored at base.
func (p *AccumPool) Get(base uint64) *Accum {
	a, _ := p.pool.Get().(*Accum)
	if a == nil {
		a = &Accum{}
	}
	a.Reset(base)
	return a
}

// Put recycles an accumulator.
func (p *AccumPool) Put(a *Accum) { p.pool.Put(a) }

// WeightedFrontier materialises row id of src as a frontier vector:
// one entry per distinct column with its edge multiplicity as weight,
// sorted ascending by id so downstream row fetches run in record
// order (the batched-access property both engines' caches like).
// base anchors the accumulator's id space, as in Accum.
func WeightedFrontier(src Source, id uint64, base uint64, pool *AccumPool) ([]WeightedID, error) {
	acc := pool.Get(base)
	defer pool.Put(acc)
	if err := src.ForEachEdge(id, func(col uint64) bool {
		acc.Add(col, 1)
		return true
	}); err != nil {
		return nil, err
	}
	out := make([]WeightedID, 0, acc.Len())
	acc.ForEach(func(col uint64, w int64) {
		out = append(out, WeightedID{ID: col, W: w})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// GatherCounts is one shard of the SpGEMM row-gather: for every
// frontier entry f it sums w(f) * A[f, c] into acc[c]. Rows lent by
// the source with uniform multiplicity (Edges == |Cols|) accumulate
// per neighbor; rows with parallel edges (or sources without
// materialised rows) accumulate per edge, which keeps path counts
// exact on multigraphs — the property the three-way differential
// tests pin against navigational and Cypher execution.
func GatherCounts(src Source, frontier []WeightedID, acc *Accum) error {
	fn := acc.edgeAdd()
	for _, f := range frontier {
		r := src.Row(f.ID)
		if r.Cols != nil && r.Edges == r.Cols.Cardinality() {
			acc.AddRow(r.Cols, f.W)
			continue
		}
		acc.w = f.W
		if err := src.ForEachEdge(f.ID, fn); err != nil {
			return err
		}
	}
	return nil
}

// MinRowsPerShard is the sharding cutoff for kernel fan-out: a
// frontier smaller than workers*MinRowsPerShard uses fewer shards
// (down to inline execution), matching the stores' navigational
// sharding cutoff. The BFS kernels apply it per level; Gather's
// callers apply it when they size the fan-out.
const MinRowsPerShard = 32

// Gather runs GatherCounts over the frontier sharded across up to
// shards goroutines and merges the shard accumulators in shard order.
// Callers size shards, usually with par.WorkersForSize and
// MinRowsPerShard. The merge is a commutative per-column sum, so the
// result is identical at every shard count. The returned accumulator
// comes from pool; the caller returns it with pool.Put when done.
func Gather(src Source, frontier []WeightedID, base uint64, shards int, pm par.Metrics, pool *AccumPool) (*Accum, error) {
	if len(frontier) == 0 {
		return pool.Get(base), nil
	}
	type shard struct {
		acc *Accum
		err error
	}
	parts := par.RunRanges(shards, len(frontier), pm, func(lo, hi int) shard {
		acc := pool.Get(base)
		err := GatherCounts(src, frontier[lo:hi], acc)
		return shard{acc, err}
	})
	out := parts[0].acc
	err := parts[0].err
	pm.TimeMerge(func() {
		for _, s := range parts[1:] {
			if s.err != nil && err == nil {
				err = s.err
			}
			out.Merge(s.acc)
			pool.Put(s.acc)
		}
	})
	if err != nil {
		pool.Put(out)
		return nil, err
	}
	return out, nil
}
