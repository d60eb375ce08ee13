package sparkdb

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
)

// Neighbors returns the set of nodes adjacent to oid through edges of
// edgeType in the given direction — Sparksee's primary navigation
// operation. With a materialised neighbor index the answer is a single
// bitmap copy; otherwise each incident edge is resolved to its far
// endpoint.
func (db *DB) Neighbors(oid uint64, edgeType graph.TypeID, dir graph.Direction) *Objects {
	db.cNavNeighbors.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(edgeType)
	if ti == nil || !ti.isEdge {
		return db.newObjects(bitmap.New())
	}
	if ti.materialized {
		// One bitmap union per direction: the neighbor set is the
		// stored record, so this is a single "fetch" regardless of
		// degree — the cost profile materialisation buys. OrMany
		// assembles the answer with one output allocation.
		var outNbrs, inNbrs *bitmap.Bitmap
		if dir == graph.Outgoing || dir == graph.Any {
			if b := ti.outNbrs[oid]; b != nil {
				db.cFetches.Inc()
				db.hooks.orOp()
				outNbrs = b
			}
		}
		if dir == graph.Incoming || dir == graph.Any {
			if b := ti.inNbrs[oid]; b != nil {
				db.cFetches.Inc()
				db.hooks.orOp()
				inNbrs = b
			}
		}
		return db.newObjects(bitmap.OrMany(outNbrs, inNbrs))
	}
	out := bitmap.New()
	// Without materialisation every incident edge record is resolved to
	// its far endpoint: one scan per link bitmap, one fetch per edge.
	if dir == graph.Outgoing || dir == graph.Any {
		if edges := ti.outLinks[oid]; edges != nil {
			db.cBitmapScan.Inc()
			edges.ForEach(func(e uint64) bool {
				db.cFetches.Inc()
				out.Add(ti.heads[seqOf(e)-1])
				return true
			})
		}
	}
	if dir == graph.Incoming || dir == graph.Any {
		if edges := ti.inLinks[oid]; edges != nil {
			db.cBitmapScan.Inc()
			edges.ForEach(func(e uint64) bool {
				db.cFetches.Inc()
				out.Add(ti.tails[seqOf(e)-1])
				return true
			})
		}
	}
	return db.newObjects(out)
}

// Explode returns the set of edge OIDs of edgeType incident to oid in
// the given direction — Sparksee's second navigation operation, used
// when the edge objects themselves (for their attributes or endpoints)
// are needed.
func (db *DB) Explode(oid uint64, edgeType graph.TypeID, dir graph.Direction) *Objects {
	db.cNavExplodes.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(edgeType)
	if ti == nil || !ti.isEdge {
		return db.newObjects(bitmap.New())
	}
	var outLinks, inLinks *bitmap.Bitmap
	if dir == graph.Outgoing || dir == graph.Any {
		if b := ti.outLinks[oid]; b != nil {
			db.cFetches.Inc()
			db.hooks.orOp()
			outLinks = b
		}
	}
	if dir == graph.Incoming || dir == graph.Any {
		if b := ti.inLinks[oid]; b != nil {
			db.cFetches.Inc()
			db.hooks.orOp()
			inLinks = b
		}
	}
	return db.newObjects(bitmap.OrMany(outLinks, inLinks))
}

// Degree returns the number of edges of edgeType incident to oid in the
// given direction.
func (db *DB) Degree(oid uint64, edgeType graph.TypeID, dir graph.Direction) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(edgeType)
	if ti == nil || !ti.isEdge {
		return 0
	}
	n := 0
	if dir == graph.Outgoing || dir == graph.Any {
		if b := ti.outLinks[oid]; b != nil {
			db.cFetches.Inc()
			n += b.Cardinality()
		}
	}
	if dir == graph.Incoming || dir == graph.Any {
		if b := ti.inLinks[oid]; b != nil {
			db.cFetches.Inc()
			n += b.Cardinality()
		}
	}
	return n
}

// CompareOp is a selection predicate operator.
type CompareOp uint8

// Selection operators.
const (
	Eq CompareOp = iota
	NotEq
	Greater
	GreaterEq
	Less
	LessEq
)

// Select returns the objects whose attr satisfies `value op v`. Only a
// single predicate is evaluated per call; Sparksee "does not directly
// support filtering on multiple predicates", so conjunctions and
// disjunctions are built by combining Objects sets (paper, Q1).
//
// Equality on an indexed attribute is a bitmap lookup; every other case
// scans the attribute's value column.
func (db *DB) Select(attr graph.AttrID, op CompareOp, v graph.Value) *Objects {
	db.cNavSelects.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ai := db.attrInfo(attr)
	if ai == nil {
		return db.newObjects(bitmap.New())
	}
	if op == Eq && ai.indexed {
		db.cIndexProbes.Inc()
		if b, ok := ai.index[v.Key()]; ok {
			db.cFetches.Inc()
			return db.newObjects(b.Clone())
		}
		return db.newObjects(bitmap.New())
	}
	// Full column scan in OID order: one fetch per set value compared.
	db.cBitmapScan.Inc()
	db.cFetches.Add(uint64(ai.set))
	// hits has bit seq set for each matching slot seq-1: the matching
	// OIDs as a bitset over the type's OID range.
	hits := make([]uint64, (ai.slots()+64)/64)
	if ai.kind == graph.KindInt && v.Kind() == graph.KindInt {
		// int64 against int64: Compare's order is the integers' own,
		// so the predicate is a range test on the payload.
		lo, hi, neg := intRange(op, v.Int())
		for w, word := range ai.present {
			for ; word != 0; word &= word - 1 {
				i := uint64(w)<<6 | uint64(bits.TrailingZeros64(word))
				if x := ai.ints[i]; (lo <= x && x <= hi) != neg {
					hits[(i+1)>>6] |= 1 << ((i + 1) & 63)
				}
			}
		}
	} else {
		for i := uint64(0); i < ai.slots(); i++ {
			if ai.has(i) && matchOp(ai.slot(i).Compare(v), op) {
				hits[(i+1)>>6] |= 1 << ((i + 1) & 63)
			}
		}
	}
	return db.newObjects(bitmap.FromWords(makeOID(ai.typeID, 0), hits))
}

// intRange states `x op v` on int64s as lo <= x <= hi, negated when neg
// is set. An operator that no integer satisfies gives lo > hi.
func intRange(op CompareOp, v int64) (lo, hi int64, neg bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case Eq:
		return v, v, false
	case NotEq:
		return v, v, true
	case Greater:
		if v == math.MaxInt64 {
			return 1, 0, false
		}
		lo = v + 1
	case GreaterEq:
		lo = v
	case Less:
		if v == math.MinInt64 {
			return 1, 0, false
		}
		hi = v - 1
	case LessEq:
		hi = v
	default:
		return 1, 0, false
	}
	return lo, hi, false
}

func matchOp(cmp int, op CompareOp) bool {
	switch op {
	case Eq:
		return cmp == 0
	case NotEq:
		return cmp != 0
	case Greater:
		return cmp > 0
	case GreaterEq:
		return cmp >= 0
	case Less:
		return cmp < 0
	case LessEq:
		return cmp <= 0
	}
	return false
}

// SinglePairShortestPathBFS finds a shortest path from src to dst using
// edges of the given types in the given direction, up to maxHops hops —
// Sparksee's native shortest-path class, which the paper invokes with a
// 3-hop limit for Q6.1. It returns the node OIDs along the path
// (src..dst) or ok=false when no path within the bound exists.
func (db *DB) SinglePairShortestPathBFS(src, dst uint64, edgeTypes []graph.TypeID, dir graph.Direction, maxHops int) ([]uint64, bool) {
	path, ok, _ := db.SinglePairShortestPathBFSCtx(nil, src, dst, edgeTypes, dir, maxHops)
	return path, ok
}

// SinglePairShortestPathBFSCtx is SinglePairShortestPathBFS bounded by
// ctx: the search polls the context once per BFS level and aborts with
// a counted error when it is cancelled or past its deadline. A nil ctx
// never aborts.
func (db *DB) SinglePairShortestPathBFSCtx(ctx context.Context, src, dst uint64, edgeTypes []graph.TypeID, dir graph.Direction, maxHops int) ([]uint64, bool, error) {
	if src == dst {
		return []uint64{src}, true, nil
	}
	// Bidirectional-free simple BFS with parent tracking; the expansion
	// itself uses the same link bitmaps as Neighbors.
	parent := map[uint64]uint64{src: src}
	frontier := []uint64{src}
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		if err := db.checkCtx(ctx); err != nil {
			return nil, false, err
		}
		var next []uint64
		for _, n := range frontier {
			for _, et := range edgeTypes {
				db.Neighbors(n, et, dir).ForEach(func(m uint64) bool {
					if _, seen := parent[m]; seen {
						return true
					}
					parent[m] = n
					if m == dst {
						return false
					}
					next = append(next, m)
					return true
				})
				if _, found := parent[dst]; found {
					return rebuildPath(parent, src, dst), true, nil
				}
			}
		}
		frontier = next
	}
	return nil, false, nil
}

func rebuildPath(parent map[uint64]uint64, src, dst uint64) []uint64 {
	var rev []uint64
	for n := dst; ; n = parent[n] {
		rev = append(rev, n)
		if n == src {
			break
		}
	}
	path := make([]uint64, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path
}

// ---------- traversal classes ----------

// Traversal walks the graph from a start node following configured edge
// types, visiting nodes in BFS or DFS order with a depth bound —
// Sparksee's Traversal/Context classes. The paper found raw navigation
// calls "slightly more efficient than expressing the query as a series
// of traversal operations"; ablation E measures that same gap, which
// here comes from the traversal bookkeeping (per-node depth records and
// the visit queue) versus bare bitmap unions.
type Traversal struct {
	db       *DB
	ctx      context.Context
	start    uint64
	bfs      bool
	maxDepth int
	steps    []traversalStep
}

type traversalStep struct {
	edgeType graph.TypeID
	dir      graph.Direction
}

// NewTraversal starts a traversal description at a node. BFS order is
// the default.
func (db *DB) NewTraversal(start uint64) *Traversal {
	return &Traversal{db: db, start: start, bfs: true, maxDepth: 1}
}

// AddEdgeType allows the traversal to follow edges of the given type and
// direction.
func (t *Traversal) AddEdgeType(et graph.TypeID, dir graph.Direction) *Traversal {
	t.steps = append(t.steps, traversalStep{et, dir})
	return t
}

// SetMaximumHops bounds the traversal depth.
func (t *Traversal) SetMaximumHops(n int) *Traversal {
	t.maxDepth = n
	return t
}

// DepthFirst switches the visit order to DFS.
func (t *Traversal) DepthFirst() *Traversal {
	t.bfs = false
	return t
}

// WithContext bounds the traversal by ctx: each visit polls it and
// RunCtx returns the (counted) abort error once it is cancelled or past
// its deadline.
func (t *Traversal) WithContext(ctx context.Context) *Traversal {
	t.ctx = ctx
	return t
}

// Visited is one traversal visit: the node and its depth from the start.
type Visited struct {
	OID   uint64
	Depth int
}

// Run executes the traversal and returns the visited nodes (excluding
// the start) in visit order. Each node is visited once, at its first
// (minimal for BFS) depth.
func (t *Traversal) Run() []Visited {
	out, _ := t.RunCtx()
	return out
}

// RunCtx is Run with the abort error surfaced: when the traversal was
// bounded with WithContext and the context fires mid-walk, the visits
// collected so far are returned alongside the counted abort error.
func (t *Traversal) RunCtx() ([]Visited, error) {
	if len(t.steps) == 0 || t.maxDepth < 1 {
		return nil, nil
	}
	seen := map[uint64]bool{t.start: true}
	var out []Visited
	type item struct {
		oid   uint64
		depth int
	}
	queue := []item{{t.start, 0}}
	for len(queue) > 0 {
		if err := t.db.checkCtx(t.ctx); err != nil {
			return out, err
		}
		var cur item
		if t.bfs {
			cur, queue = queue[0], queue[1:]
		} else {
			cur, queue = queue[len(queue)-1], queue[:len(queue)-1]
		}
		if cur.depth >= t.maxDepth {
			continue
		}
		for _, st := range t.steps {
			t.db.Neighbors(cur.oid, st.edgeType, st.dir).ForEach(func(m uint64) bool {
				if seen[m] {
					return true
				}
				seen[m] = true
				out = append(out, Visited{OID: m, Depth: cur.depth + 1})
				queue = append(queue, item{m, cur.depth + 1})
				return true
			})
		}
	}
	return out, nil
}

// String implements fmt.Stringer for debugging.
func (t *Traversal) String() string {
	order := "BFS"
	if !t.bfs {
		order = "DFS"
	}
	return fmt.Sprintf("Traversal{start=%d %s maxDepth=%d steps=%d}", t.start, order, t.maxDepth, len(t.steps))
}
