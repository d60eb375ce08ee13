// Package par is the shared parallel-execution layer for per-query
// parallelism in both engines: a stdlib-only fork-join pool sized from
// runtime.GOMAXPROCS plus deterministic ordered merges of per-shard
// partial results.
//
// The multi-hop workload queries (recommendation, influence, shortest
// path) are frontier expansions whose per-item work is independent: the
// first hop yields a list of edges or nodes, and each element fans out
// to a second hop feeding a counting map or a next-frontier set. This
// package shards that list into contiguous ranges, runs one goroutine
// per shard, and merges the shard-local results *in shard order* — the
// property that makes parallel execution deterministic: counting-map
// merges are commutative sums, and ordered merges keep every other
// reduction independent of goroutine scheduling.
//
// The package imports only the standard library and internal/obs, so
// every engine layer can depend on it.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/obs"
)

// Counter names registered by engines that execute sharded queries.
const (
	// CShards counts shards executed by the pool (one per goroutine
	// dispatched, including single-shard inline runs).
	CShards = "par_shards"
	// CMergeNanos accumulates nanoseconds spent merging per-shard
	// partial results into the final answer.
	CMergeNanos = "par_merge_nanos"
)

// Metrics mirrors pool activity into an engine's observability
// registry. The zero value records nothing.
type Metrics struct {
	Shards     *obs.Counter
	MergeNanos *obs.Counter
	// Trace, when set and enabled, receives one complete event per
	// shard execution (cat "par", tid = shard index), so exported
	// timelines show the fork-join fan-out of parallel queries.
	Trace *obs.TraceBuffer
}

// MetricsFrom registers (or finds) the pool counters on a registry.
func MetricsFrom(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		Shards:     reg.Counter(CShards),
		MergeNanos: reg.Counter(CMergeNanos),
	}
}

func (m Metrics) addShards(n int) {
	if m.Shards != nil && n > 0 {
		m.Shards.Add(uint64(n))
	}
}

// TimeMerge runs fn and charges its wall time to the merge counter.
// Reductions that happen outside RunRanges/CountSharded (for example a
// k-way bitmap union of shard frontiers) wrap themselves in this so the
// merge cost stays observable.
func (m Metrics) TimeMerge(fn func()) {
	if m.MergeNanos == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	m.MergeNanos.Add(uint64(time.Since(start)))
}

// Workers normalises a worker-count knob: n > 0 is taken as-is, and
// anything else means "use every core" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// WorkersForSize caps a normalised worker count so every shard gets at
// least minPerShard items; tiny inputs collapse to one shard and run
// inline. BFS levels use this — most levels are far smaller than the
// graph, and forking goroutines for a handful of nodes costs more than
// the expansion itself. Results are unaffected (the merge is shard-
// order deterministic at any count).
func WorkersForSize(workers, n, minPerShard int) int {
	w := Workers(workers)
	if minPerShard > 0 {
		if max := n / minPerShard; w > max {
			w = max
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Range is one contiguous shard [Lo, Hi) of an item list.
type Range struct{ Lo, Hi int }

// Ranges splits [0, n) into at most shards contiguous ranges of
// near-equal size. Every element belongs to exactly one range, and
// ranges are returned in ascending order — the shard order every merge
// in this package follows.
func Ranges(n, shards int) []Range {
	if n <= 0 {
		return nil
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	out := make([]Range, 0, shards)
	base, rem := n/shards, n%shards
	lo := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// RunRanges shards [0, n) across up to workers goroutines, invokes fn
// once per shard, and returns the shard results in shard order. With
// workers <= 1 (or a single shard) fn runs inline on the caller's
// goroutine — exactly the sequential behaviour a one-worker caller
// expects.
func RunRanges[R any](workers, n int, m Metrics, fn func(lo, hi int) R) []R {
	ranges := Ranges(n, Workers(workers))
	if len(ranges) == 0 {
		return nil
	}
	m.addShards(len(ranges))
	run := fn
	if m.Trace.Enabled() {
		total := len(ranges)
		run = func(lo, hi int) R {
			start := time.Now()
			r := fn(lo, hi)
			// tid 1+lo keeps concurrent shards on distinct timeline rows.
			m.Trace.Complete("par", fmt.Sprintf("shard [%d,%d)/%d", lo, hi, total),
				int64(1+lo), start, time.Since(start),
				map[string]any{"items": hi - lo})
			return r
		}
	}
	out := make([]R, len(ranges))
	if len(ranges) == 1 {
		out[0] = run(ranges[0].Lo, ranges[0].Hi)
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for s, r := range ranges {
		go func(s int, r Range) {
			defer wg.Done()
			out[s] = run(r.Lo, r.Hi)
		}(s, r)
	}
	wg.Wait()
	return out
}

// Morsels runs fn(w, i) for every morsel i in [0, n) on up to workers
// goroutines: each worker w claims the lowest morsel no worker has
// claimed yet, until none is left or a call fails, so uneven morsels
// balance themselves. The caller's goroutine is worker 0; the others
// are forked, and each worker counts as one shard. A forked worker
// calls leave(w), when leave is not nil, before each claim, and stops
// once it reports true; worker 0 never leaves, so every morsel runs.
// Morsels returns the first error a call returned, after every worker
// has stopped. Callers that need morsel order keep each morsel's result
// by i.
func Morsels(workers, n int, m Metrics, fn func(w, i int) error, leave func(w int) bool) error {
	workers = min(Workers(workers), n)
	if workers < 1 {
		return nil
	}
	m.addShards(workers)
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
	)
	run := func(w int) {
		start := time.Now()
		done := 0
		for !failed.Load() {
			if w > 0 && leave != nil && leave(w) {
				break
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				break
			}
			if err := fn(w, i); err != nil {
				once.Do(func() { first = err })
				failed.Store(true)
				break
			}
			done++
		}
		if m.Trace.Enabled() {
			m.Trace.Complete("par", fmt.Sprintf("worker %d/%d", w, workers),
				int64(1+w), start, time.Since(start), map[string]any{"morsels": done})
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	return first
}

// Do invokes fn for every i in [0, n), sharded across up to workers
// goroutines.
func Do(workers, n int, m Metrics, fn func(i int)) {
	RunRanges(workers, n, m, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			fn(i)
		}
		return struct{}{}
	})
}

// CountSharded runs visit over items with a shard-local counting map
// per goroutine, then sums the shard maps in shard order. Because the
// merge is a commutative sum keyed by K, the result is identical for
// any worker count — the determinism contract the workload's top-N
// queries rely on (ranking ties are broken downstream on the key, never
// on map order).
func CountSharded[T any, K comparable](workers int, m Metrics, items []T, visit func(item T, acc map[K]int64)) map[K]int64 {
	return SumCounts(m, RunRanges(workers, len(items), m, func(lo, hi int) map[K]int64 {
		acc := make(map[K]int64)
		for _, item := range items[lo:hi] {
			visit(item, acc)
		}
		return acc
	}))
}

// SumCounts sums shard-local counting maps in shard order, charging the
// merge to m; a single map is returned as it is.
func SumCounts[K comparable](m Metrics, partials []map[K]int64) map[K]int64 {
	if len(partials) == 1 {
		return partials[0]
	}
	total := make(map[K]int64)
	m.TimeMerge(func() {
		for _, p := range partials {
			for k, v := range p {
				total[k] += v
			}
		}
	})
	return total
}
