package cypher

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/par"
	"twigraph/internal/spmat"
)

// execCtx carries per-execution state: the engine's database handle,
// the record reader every operator reads through, the bounding context
// (nil when unbounded) and the query parameters.
type execCtx struct {
	db     *neodb.DB
	rd     neodb.Reader // closed by the engine on every exit path
	ctx    context.Context
	params map[string]graph.Value
	ticks  uint

	// The node candidate a binding step is testing against its placed
	// WHERE conjuncts: while candOn, reads of candSlot see cand instead
	// of the row's cell, so a rejected candidate is never boxed into a
	// row.
	candOn   bool
	candSlot int
	cand     NodeRef

	// Property-key ids resolved so far, by name: a WHERE over a scan
	// would otherwise take the catalog lock once per candidate.
	keys []propKeyID

	// Scratch of the batched property reads, from batchPool.
	buf *batchBufs

	// Algebraic execution: the engine's matrix mode snapshot for this
	// execution, plan-choice counters, and a dense-accumulator pool for
	// eligible var-length expansions. Per-execution state, never on the
	// (cached, shared) plan steps.
	matrix  matrixMode
	spm     *spmat.Metrics
	accPool spmat.AccumPool

	// Morsel-parallel execution: how many goroutines a label scan or a
	// projection may fork (1 under Faithful), the engine's shard and
	// merge counters, and whether this is a forked worker's context,
	// whose detected aborts the forking execution counts.
	workers int
	parm    par.Metrics
	worker  bool

	// prune lets a label scan narrow its candidates with a schema index
	// on a batched conjunct's property (Tuned; see stepLabelScan).
	prune bool

	// PROFILE per-operator accounting: when profileOps is set, a match
	// stage fills ops with one accumulator per step, summed across every
	// input row. The engine reads (and resets) ops after each stage;
	// curStep is the index of the step currently applying, so operators
	// that pick an execution path at run time can rename their
	// accumulator ("VarLengthExpand(matrix)").
	profileOps bool
	ops        []opAcc
	curStep    int
}

// opAcc accumulates one operator's PROFILE measurements: wall time,
// db-hit delta and rows produced, across all input rows of its stage,
// and, for a label scan an index pruned, the index and the candidates
// it left.
type opAcc struct {
	name    string
	rows    int
	dbHits  uint64
	elapsed time.Duration
	index   string
	cands   int
}

type propKeyID struct {
	name string
	id   graph.AttrID
}

func (ec *execCtx) propKey(name string) graph.AttrID {
	for _, k := range ec.keys {
		if k.name == name {
			return k.id
		}
	}
	id := ec.db.PropKeyID(name)
	ec.keys = append(ec.keys, propKeyID{name, id})
	return id
}

// ctxErr polls the bounding context and, on abort, counts it (exactly
// once, at this detection site) and returns a wrapped error. Errors
// that bubble up from nested engine calls were already counted where
// they were detected and must be propagated, not re-classified.
func (ec *execCtx) ctxErr() error {
	if ec.ctx == nil {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		if !ec.worker {
			ec.db.CountQueryAbort(err)
		}
		return fmt.Errorf("cypher: query aborted: %w", err)
	}
	return nil
}

// batchSize is how many candidates a scan collects before it evaluates
// its batched conjuncts, and how many rows a projection reads a
// property column for at once. It equals the context-poll stride, so a
// batch polls the context once.
const batchSize = 1024

// tick is ctxErr on a stride of batchSize rows, cheap enough to call
// from per-record emit callbacks inside scan and expand loops.
func (ec *execCtx) tick() error { return ec.tickN(1) }

// tickN is n ticks at once: it polls when the count crosses a multiple
// of the stride.
func (ec *execCtx) tickN(n int) error {
	before := ec.ticks
	ec.ticks += uint(n)
	if before/batchSize == ec.ticks/batchSize {
		return nil
	}
	return ec.ctxErr()
}

// batchBufs is the scratch of batched property reads: the node ids of
// one batch, the values read for them, and the rows an aggregation
// projects its grouping keys into. Each holds at most batchSize
// entries. Executions share them through batchPool, so a short query
// allocates none of it.
type batchBufs struct {
	ids  []graph.NodeID
	vals []graph.Value
	rows []projRow

	nvals, nrows int // how many vals and rows an execution has used
}

var batchPool = sync.Pool{New: func() any {
	return &batchBufs{
		ids:  make([]graph.NodeID, 0, batchSize),
		vals: make([]graph.Value, batchSize),
		rows: make([]projRow, batchSize),
	}
}}

// values returns the first n values of the scratch.
func (b *batchBufs) values(n int) []graph.Value {
	b.nvals = max(b.nvals, n)
	return b.vals[:n]
}

// projRows returns the first n rows of the scratch.
func (b *batchBufs) projRows(n int) []projRow {
	b.nrows = max(b.nrows, n)
	return b.rows[:n]
}

// release clears the values and rows the execution used, so the pool
// keeps no strings or rows alive, and returns b to the pool.
func (b *batchBufs) release() {
	clear(b.vals[:b.nvals])
	clear(b.rows[:b.nrows])
	b.nvals, b.nrows = 0, 0
	batchPool.Put(b)
}

// stage is one pipeline segment: it consumes materialised rows and
// produces materialised rows.
type stage interface {
	run(ec *execCtx, in []row) ([]row, error)
	name() string
}

// ---------- match stage ----------

type matchStage struct {
	optional bool
	steps    []step
	pre      where // conjuncts over slots no step binds
	vars     *varMap
	width    int
}

func (st *matchStage) name() string { return "Match" }

func (st *matchStage) run(ec *execCtx, in []row) ([]row, error) {
	if ec.profileOps {
		ec.ops = make([]opAcc, len(st.steps))
		for i, s := range st.steps {
			ec.ops[i].name = s.describe()
		}
	}
	var out []row
	for _, r := range in {
		if err := ec.ctxErr(); err != nil {
			return nil, err
		}
		// Widen the row to this stage's slot count.
		base := make(row, st.width)
		copy(base, r)
		rows := []row{base}
		ok, err := st.pre.admit(ec, base)
		if err != nil {
			return nil, err
		}
		if !ok {
			rows = nil
		}
		for i, s := range st.steps {
			if len(rows) == 0 {
				break
			}
			var err error
			if ec.profileOps {
				ec.curStep = i
				start := time.Now()
				hits := ec.db.RecordFetches()
				rows, err = s.apply(ec, rows)
				ec.ops[i].elapsed += time.Since(start)
				ec.ops[i].dbHits += ec.db.RecordFetches() - hits
				ec.ops[i].rows += len(rows)
			} else {
				rows, err = s.apply(ec, rows)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(rows) == 0 && st.optional {
			rows = []row{base} // unmatched vars stay nil
		}
		out = append(out, rows...)
	}
	return out, nil
}

// step is one primitive operation inside a match stage.
type step interface {
	apply(ec *execCtx, in []row) ([]row, error)
	describe() string
}

// bindingStep is a step that binds new slots. The planner places each
// WHERE conjunct on the earliest binding step after which its variables
// are bound; the step tests candidates against it before it copies
// them into output rows.
type bindingStep interface {
	step
	binds() []int
	placed() *where
}

// where is a list of WHERE conjuncts placed at one point of a match
// stage.
type where struct {
	preds []Expr
	vars  *varMap
	// cmps are the leading preds that compare a property of the node a
	// scan binds with a literal or parameter; the scan evaluates them a
	// batch of candidates at a time, and admit runs only the rest.
	cmps []propCmp
	// decided is the one of cmps that the index pruning a label scan
	// decided, which the scan does not test again; nil when none.
	decided *propCmp
}

func (w *where) placed() *where { return w }

// admit reports whether every conjunct after the batched ones holds on
// r.
func (w *where) admit(ec *execCtx, r row) (bool, error) {
	for _, p := range w.preds[len(w.cmps):] {
		v, err := evalExpr(ec, w.vars, p, r)
		if err != nil || !cellTruth(v) {
			return false, err
		}
	}
	return true, nil
}

// emit tests the candidate "cand with node id bound at slot" against
// the conjuncts and, when they hold, appends a copy of it to out. cand
// is only read, so steps pass their input row or one scratch row per
// input row; only admitted candidates are copied and boxed.
func (w *where) emit(ec *execCtx, cand row, slot int, id NodeRef, out []row) ([]row, error) {
	if ok, err := w.admits(ec, cand, slot, id); err != nil || !ok {
		return out, err
	}
	nr := cloneRow(cand)
	nr[slot] = id
	return append(out, nr), nil
}

// admits reports whether the conjuncts after the batched ones hold on
// the candidate "cand with node id bound at slot".
func (w *where) admits(ec *execCtx, cand row, slot int, id NodeRef) (bool, error) {
	if len(w.preds) == len(w.cmps) {
		return true, nil
	}
	ec.candOn, ec.candSlot, ec.cand = true, slot, id
	ok, err := w.admit(ec, cand)
	ec.candOn = false
	return ok, err
}

// nodeAt returns the node bound at slot of r, seeing the candidate
// under test.
func (ec *execCtx) nodeAt(r row, slot int) (NodeRef, bool) {
	if ec.candOn && slot == ec.candSlot {
		return ec.cand, true
	}
	ref, ok := r[slot].(NodeRef)
	return ref, ok
}

// cellAt returns the cell at slot of r, seeing the candidate under
// test.
func (ec *execCtx) cellAt(r row, slot int) any {
	if ec.candOn && slot == ec.candSlot {
		return ec.cand
	}
	return r[slot]
}

// scan emits one candidate per id of ids, bound at slot on top of r. It
// collects batchSize candidates at a time and emits the survivors of
// the batched conjuncts.
func (w *where) scan(ec *execCtx, r row, slot int, ids *bitmap.Bitmap, out []row) ([]row, error) {
	if ec.workers > 1 {
		if out, forked, err := w.scanMorsels(ec, r, slot, ids, out); forked {
			return out, err
		}
	}
	var err error
	batch := ec.buf.ids[:0]
	ids.ForEach(func(id uint64) bool {
		if batch = append(batch, graph.NodeID(id)); len(batch) == batchSize {
			out, err = w.scanBatch(ec, r, slot, batch, out)
			batch = batch[:0]
		}
		return err == nil
	})
	if err == nil && len(batch) > 0 {
		out, err = w.scanBatch(ec, r, slot, batch, out)
	}
	return out, err
}

// scanBatch narrows a batch of candidates by each batched conjunct in
// turn, then emits the survivors through the remaining conjuncts, as
// emit does, but into rows cut from one backing array. It reuses
// batch's array.
func (w *where) scanBatch(ec *execCtx, r row, slot int, batch []graph.NodeID, out []row) ([]row, error) {
	if err := ec.tickN(len(batch)); err != nil {
		return out, err
	}
	for i := range w.cmps {
		if c := &w.cmps[i]; c != w.decided {
			var err error
			if batch, err = c.filter(ec, batch); err != nil {
				return out, err
			}
		}
	}
	if len(batch) == 0 {
		return out, nil
	}
	width := len(r)
	cells := make([]any, len(batch)*width)
	for _, id := range batch {
		if ok, err := w.admits(ec, r, slot, NodeRef(id)); err != nil {
			return out, err
		} else if !ok {
			continue
		}
		nr := row(cells[:width:width])
		cells = cells[width:]
		copy(nr, r)
		nr[slot] = NodeRef(id)
		out = append(out, nr)
	}
	return out, nil
}

// propCmp is a conjunct `v.key op operand` (or `operand op v.key`) over
// the node v a scan binds, with op one of = <> < <= > >= and operand a
// literal or parameter.
type propCmp struct {
	key      string
	op       string
	operand  Expr
	propLeft bool
}

// batchable returns the leading conjuncts of preds that are propCmps
// over the node at slot. Only a prefix qualifies: every candidate still
// evaluates exactly the conjuncts, in the order, that row-at-a-time
// evaluation would.
func batchable(preds []Expr, vars *varMap, slot int) []propCmp {
	var cmps []propCmp
	for _, p := range preds {
		b, ok := p.(*BinOp)
		if !ok {
			return cmps
		}
		switch b.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return cmps
		}
		c := propCmp{op: b.Op, operand: b.R, propLeft: true}
		pa, ok := b.L.(*PropAccess)
		if !ok {
			pa, ok = b.R.(*PropAccess)
			c.operand, c.propLeft = b.L, false
		}
		if !ok || !isConstant(c.operand) {
			return cmps
		}
		if s, ok := vars.lookup(pa.Var); !ok || s != slot {
			return cmps
		}
		c.key = pa.Key
		cmps = append(cmps, c)
	}
	return cmps
}

func isConstant(e Expr) bool {
	switch e.(type) {
	case *Lit, *Param:
		return true
	}
	return false
}

// filter keeps the candidates of ids for which the comparison holds, in
// order, reading the property of all of them with one property run.
// It compares with compareScalars, as the row-at-a-time path does.
func (c *propCmp) filter(ec *execCtx, ids []graph.NodeID) ([]graph.NodeID, error) {
	if len(ids) == 0 {
		return ids, nil
	}
	operand, _, err := scalar(ec, nil, c.operand, nil)
	if err != nil {
		return nil, err
	}
	vals := ec.buf.values(len(ids))
	if key := ec.propKey(c.key); key != graph.NilAttr {
		if err := ec.rd.NodePropRun(ids, key, vals); err != nil {
			return nil, err
		}
	} else {
		for i := range vals {
			vals[i] = graph.NilValue
		}
	}
	kept := ids[:0]
	for i, v := range vals {
		if c.holds(v, operand) {
			kept = append(kept, ids[i])
		}
	}
	return kept, nil
}

// holds reports whether the comparison holds for a node whose property
// is v. A null or unset v never passes (compareScalars).
func (c *propCmp) holds(v, operand graph.Value) bool {
	if !c.propLeft {
		v, operand = operand, v
	}
	ok, _ := compareScalars(c.op, v, operand)
	return ok
}

// minNodesPerIndexValue is how many nodes of the label a schema index
// must hold per distinct value for a scan to prune with it. Selecting
// tests every distinct value, at about the cost of scanning one node
// (4.1 ms for a 30 000-value uid index; 3.3 ms to scan its 30 000 users
// with a rejecting conjunct), so at one value per 8 nodes a selection
// that prunes nothing costs about a sixth of the scan, while Q1.1's
// 151-value follower index at 30 000 users costs about 20 µs.
const minNodesPerIndexValue = 8

// indexed returns the nodes of label that a schema index on c's
// property posts under a value for which c holds, or nil when no index
// covers the property, the index has too many distinct values for the
// label's size, or the operand cannot be read (the scan then reports
// the error).
func (c *propCmp) indexed(ec *execCtx, label graph.TypeID) *bitmap.Bitmap {
	key := ec.propKey(c.key)
	if key == graph.NilAttr {
		return nil
	}
	operand, _, err := scalar(ec, nil, c.operand, nil)
	if err != nil {
		return nil
	}
	maxValues := ec.db.LabelCount(label) / minNodesPerIndexValue
	return ec.db.SelectNodes(label, key, maxValues, func(v graph.Value) bool { return c.holds(v, operand) })
}

type stepIndexSeek struct {
	where
	slot  int
	label graph.TypeID
	key   graph.AttrID
	val   Expr
}

func (s *stepIndexSeek) describe() string { return "NodeIndexSeek" }
func (s *stepIndexSeek) binds() []int     { return []int{s.slot} }

func (s *stepIndexSeek) apply(ec *execCtx, in []row) ([]row, error) {
	var out []row
	for _, r := range in {
		v, err := evalExpr(ec, nil, s.val, r)
		if err != nil {
			return nil, err
		}
		gv, ok := v.(graph.Value)
		if !ok {
			return nil, fmt.Errorf("cypher: index seek value is not a scalar")
		}
		ids := ec.db.FindNodes(s.label, s.key, gv)
		if ids == nil {
			continue
		}
		if out, err = s.scan(ec, r, s.slot, ids, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type stepLabelScan struct {
	where
	slot  int
	label graph.TypeID
}

func (s *stepLabelScan) describe() string { return "NodeByLabelScan" }
func (s *stepLabelScan) binds() []int     { return []int{s.slot} }

func (s *stepLabelScan) apply(ec *execCtx, in []row) ([]row, error) {
	var out []row
	for _, r := range in {
		w := s.where
		nodes := s.candidates(ec, &w)
		if nodes == nil {
			continue
		}
		var err error
		if out, err = w.scan(ec, r, s.slot, nodes, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// candidates returns the nodes the scan tests: the label's, or, when
// the execution prunes, those that the index of the first batched
// conjunct with a coarse enough index holds under a value that passes
// the conjunct. A node of the label missing from that set has the
// property unset or null, or holds a value that fails the conjunct, so
// the full scan would reject it too; a node in it holds a passing
// value (HashIndex.Select ran the conjunct's holds on each value), so
// candidates marks that conjunct decided in w, the scan's copy of its
// conjuncts. Every other conjunct still runs on each candidate, so the
// rows, and their order, are the full scan's.
func (s *stepLabelScan) candidates(ec *execCtx, w *where) *bitmap.Bitmap {
	if ec.prune {
		for i := range s.cmps {
			if ids := s.cmps[i].indexed(ec, s.label); ids != nil {
				w.decided = &w.cmps[i]
				if ec.profileOps {
					acc := &ec.ops[ec.curStep]
					acc.index = fmt.Sprintf(":%s(%s)", ec.db.LabelName(s.label), s.cmps[i].key)
					acc.cands += ids.Cardinality()
				}
				return ids
			}
		}
	}
	return ec.db.NodesByLabel(s.label)
}

type stepAllNodes struct {
	where
	slot int
}

func (s *stepAllNodes) describe() string { return "AllNodesScan" }
func (s *stepAllNodes) binds() []int     { return []int{s.slot} }

func (s *stepAllNodes) apply(ec *execCtx, in []row) ([]row, error) {
	// Enumerate all labels through the label scan store.
	var out []row
	for _, r := range in {
		for label := graph.TypeID(1); ; label++ {
			if ec.db.LabelName(label) == "" {
				break
			}
			nodes := ec.db.NodesByLabel(label)
			if nodes == nil {
				continue
			}
			var err error
			if out, err = s.scan(ec, r, s.slot, nodes, out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

type stepLabelFilter struct {
	where
	slot  int
	label graph.TypeID
}

func (s *stepLabelFilter) describe() string { return "Filter(label)" }

func (s *stepLabelFilter) apply(ec *execCtx, in []row) ([]row, error) {
	out := in[:0]
	for _, r := range in {
		ref, ok := r[s.slot].(NodeRef)
		if !ok {
			continue
		}
		n, err := ec.rd.NodeByID(graph.NodeID(ref))
		if err != nil || n.Label != s.label {
			continue
		}
		if ok, err := s.admit(ec, r); err != nil {
			return nil, err
		} else if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

type stepPropFilter struct {
	where
	slot int
	key  string
	val  Expr
}

func (s *stepPropFilter) describe() string { return "Filter(property)" }

func (s *stepPropFilter) apply(ec *execCtx, in []row) ([]row, error) {
	key := ec.propKey(s.key)
	out := in[:0]
	for _, r := range in {
		ref, ok := r[s.slot].(NodeRef)
		if !ok {
			continue
		}
		want, err := evalExpr(ec, nil, s.val, r)
		if err != nil {
			return nil, err
		}
		got, err := ec.rd.NodeProp(graph.NodeID(ref), key)
		if err != nil {
			continue
		}
		if wv, ok := want.(graph.Value); !ok || !got.Equal(wv) {
			continue
		}
		if ok, err := s.admit(ec, r); err != nil {
			return nil, err
		} else if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

type stepExpand struct {
	where
	fromSlot, toSlot, relSlot int
	relType                   string
	dir                       graph.Direction
	minHops, maxHops          int
	toBound                   bool
}

func (s *stepExpand) describe() string {
	if s.maxHops != 1 || s.minHops != 1 {
		return "VarLengthExpand"
	}
	if s.toBound {
		return "ExpandInto"
	}
	return "Expand"
}

func (s *stepExpand) binds() []int {
	var b []int
	if !s.toBound {
		b = append(b, s.toSlot)
	}
	if s.relSlot >= 0 {
		b = append(b, s.relSlot)
	}
	return b
}

func (s *stepExpand) apply(ec *execCtx, in []row) ([]row, error) {
	t := graph.NilType
	if s.relType != "" {
		t = ec.db.RelTypeID(s.relType)
		if t == graph.NilType {
			return nil, nil // unknown type matches nothing
		}
	}
	var out []row
	for _, r := range in {
		from, ok := r[s.fromSlot].(NodeRef)
		if !ok {
			continue
		}
		if s.matrixEligible(ec) {
			var handled bool
			var merr error
			out, handled, merr = s.expandMatrix(ec, r, graph.NodeID(from), t, out)
			if merr != nil {
				return nil, merr
			}
			if handled {
				continue
			}
		}
		// A relationship binding changes per path, so it goes into a
		// scratch copy of the input row; without one the input row is
		// the candidate.
		cand := r
		if s.relSlot >= 0 {
			cand = cloneRow(r)
		}
		var emitErr error
		err := expandPaths(ec, graph.NodeID(from), t, s.dir, s.minHops, s.maxHops,
			func(end graph.NodeID, rels []graph.EdgeID) bool {
				if s.toBound {
					want, ok := r[s.toSlot].(NodeRef)
					if !ok || graph.NodeID(want) != end {
						return true
					}
				}
				if s.relSlot >= 0 {
					if len(rels) == 1 {
						cand[s.relSlot] = RelRef(rels[0])
					} else {
						lv := make(ListVal, len(rels))
						for i, e := range rels {
							lv[i] = RelRef(e)
						}
						cand[s.relSlot] = lv
					}
				}
				out, emitErr = s.emit(ec, cand, s.toSlot, NodeRef(end), out)
				return emitErr == nil
			})
		if err == nil {
			err = emitErr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expandPaths enumerates every path of length [minHops, maxHops] from
// start following rels of type t in direction dir, with
// relationship-uniqueness per path (Cypher semantics). fn receives the
// path's end node and relationship ids; returning false stops the
// enumeration.
func expandPaths(ec *execCtx, start graph.NodeID, t graph.TypeID, dir graph.Direction, minHops, maxHops int, fn func(graph.NodeID, []graph.EdgeID) bool) error {
	if maxHops < 0 {
		maxHops = 15
	}
	var rels []graph.EdgeID
	used := map[graph.EdgeID]bool{}
	stop := false
	var abortErr error
	var dfs func(cur graph.NodeID, depth int) error
	dfs = func(cur graph.NodeID, depth int) error {
		if stop {
			return nil
		}
		if err := ec.tick(); err != nil {
			return err
		}
		if depth >= minHops && depth > 0 {
			if !fn(cur, rels) {
				stop = true
				return nil
			}
		}
		if depth >= maxHops {
			return nil
		}
		err := ec.rd.Relationships(cur, t, dir, func(r neodb.Rel) bool {
			if stop || used[r.ID] {
				return !stop
			}
			next := r.Dst
			if next == cur && r.Src != r.Dst {
				next = r.Src
			}
			used[r.ID] = true
			rels = append(rels, r.ID)
			if err := dfs(next, depth+1); err != nil {
				abortErr = err
				return false
			}
			rels = rels[:len(rels)-1]
			delete(used, r.ID)
			return !stop
		})
		if err != nil {
			return err
		}
		return abortErr
	}
	if minHops == 0 {
		if !fn(start, nil) {
			return nil
		}
	}
	return dfs(start, 0)
}

type stepShortestPath struct {
	where
	pathSlot, fromSlot, toSlot int
	relType                    string
	dir                        graph.Direction
	maxHops                    int
}

func (s *stepShortestPath) describe() string { return "ShortestPath" }

func (s *stepShortestPath) binds() []int {
	if s.pathSlot < 0 {
		return nil
	}
	return []int{s.pathSlot}
}

func (s *stepShortestPath) apply(ec *execCtx, in []row) ([]row, error) {
	t := graph.NilType
	if s.relType != "" {
		t = ec.db.RelTypeID(s.relType)
	}
	var out []row
	for _, r := range in {
		from, ok1 := r[s.fromSlot].(NodeRef)
		to, ok2 := r[s.toSlot].(NodeRef)
		if !ok1 || !ok2 {
			continue
		}
		// The search reads through readers of its own; drop this one's
		// pins so a small page cache can serve both.
		ec.rd.Close()
		p, found, err := ec.db.ShortestPathCtx(ec.ctx, graph.NodeID(from), graph.NodeID(to),
			[]neodb.Expander{{Type: t, Dir: s.dir}}, s.maxHops)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		nr := cloneRow(r)
		if s.pathSlot >= 0 {
			nr[s.pathSlot] = PathVal{Nodes: p.Nodes, Rels: p.Rels}
		}
		ok, err := s.admit(ec, nr)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, nr)
		}
	}
	return out, nil
}

func cloneRow(r row) row {
	nr := make(row, len(r))
	copy(nr, r)
	return nr
}

// ---------- unwind stage ----------

type unwindStage struct {
	expr    Expr
	vars    *varMap
	outSlot int
	width   int
}

func (st *unwindStage) name() string { return "Unwind" }

func (st *unwindStage) run(ec *execCtx, in []row) ([]row, error) {
	var out []row
	for _, r := range in {
		if err := ec.ctxErr(); err != nil {
			return nil, err
		}
		v, err := evalExpr(ec, st.vars, st.expr, r)
		if err != nil {
			return nil, err
		}
		list, ok := v.(ListVal)
		if !ok {
			if cellIsNull(v) {
				continue
			}
			list = ListVal{v}
		}
		for _, item := range list {
			nr := make(row, st.width)
			copy(nr, r)
			nr[st.outSlot] = item
			out = append(out, nr)
		}
	}
	return out, nil
}

// ---------- projection stage (WITH / RETURN) ----------

type projectStage struct {
	clause  *WithClause
	inVars  *varMap
	outVars *varMap
	hasAgg  bool
}

func (st *projectStage) name() string {
	if st.clause.Final {
		return "Return"
	}
	return "With"
}

// projRow pairs a projected output row with a representative input row
// so ORDER BY can reference pre-projection variables (Cypher allows
// `RETURN f.uid ORDER BY f.followers`).
type projRow struct {
	out row
	in  row
}

func (st *projectStage) run(ec *execCtx, in []row) ([]row, error) {
	var rows []projRow
	var err error
	if st.hasAgg {
		rows, err = st.aggregate(ec, in)
	} else {
		// One backing array holds every output row.
		width := len(st.clause.Items)
		cells := make([]any, len(in)*width)
		rows = make([]projRow, len(in))
		for k, r := range in {
			rows[k] = projRow{out: cells[k*width : (k+1)*width : (k+1)*width], in: r}
		}
		err = st.project(ec, rows, st.clause.Items)
	}
	if err != nil {
		return nil, err
	}
	// DISTINCT.
	if st.clause.Distinct {
		seen := map[string]bool{}
		dedup := rows[:0]
		for _, r := range rows {
			k := rowKey(r.out)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	// WITH ... WHERE (post-projection filter).
	if st.clause.Where != nil {
		filtered := rows[:0]
		for _, r := range rows {
			v, err := st.evalPost(ec, st.clause.Where, r)
			if err != nil {
				return nil, err
			}
			if cellTruth(v) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}
	out := make([]row, len(rows))
	// ORDER BY: expressions may reference projected aliases or (for
	// non-aggregating projections) original variables.
	if len(st.clause.OrderBy) > 0 {
		// Row i's sort keys are keys[i*nk : (i+1)*nk].
		nk := len(st.clause.OrderBy)
		keys := make([]any, len(rows)*nk)
		for i, r := range rows {
			for j, si := range st.clause.OrderBy {
				v, err := st.evalPost(ec, si.Expr, r)
				if err != nil {
					return nil, err
				}
				keys[i*nk+j] = v
			}
		}
		idxs := make([]int, len(rows))
		for i := range idxs {
			idxs[i] = i
		}
		// Ties keep input order: the index breaks them, so the unstable
		// sort gives the stable order.
		slices.SortFunc(idxs, func(a, b int) int {
			ka, kb := keys[a*nk:], keys[b*nk:]
			for j, si := range st.clause.OrderBy {
				if c := cellCompare(ka[j], kb[j]); c != 0 {
					if si.Desc {
						return -c
					}
					return c
				}
			}
			return a - b
		})
		for i, ix := range idxs {
			out[i] = rows[ix].out
		}
	} else {
		for i, r := range rows {
			out[i] = r.out
		}
	}
	// SKIP / LIMIT.
	if st.clause.Skip != nil {
		n, err := evalInt(ec, st.outVars, st.clause.Skip, nil)
		if err != nil {
			return nil, err
		}
		if n >= len(out) {
			out = nil
		} else {
			out = out[n:]
		}
	}
	if st.clause.Limit != nil {
		n, err := evalInt(ec, st.outVars, st.clause.Limit, nil)
		if err != nil {
			return nil, err
		}
		if n < len(out) {
			out = out[:n]
		}
	}
	return out, nil
}

func rowKey(r row) string {
	k := ""
	for _, c := range r {
		k += cellKey(c) + "|"
	}
	return k
}

// project evaluates items[j] over each row's input into its out[j], a
// column of batchSize rows at a time, polling the context once per
// batch: an item `v.key` over a bound variable with one property run,
// any other item row by row. Under Tuned, enough rows run as morsels
// on forked workers, each writing only its own rows.
func (st *projectStage) project(ec *execCtx, rows []projRow, items []ReturnItem) error {
	if ec.morselWorkers(len(rows)) > 1 {
		if forked, err := ec.forkMorsels(len(rows), func(wc *execCtx, _, m int) error {
			return st.projectBatch(wc, rows[m*batchSize:min((m+1)*batchSize, len(rows))], items)
		}); forked {
			return err
		}
	}
	for lo := 0; lo < len(rows); lo += batchSize {
		if err := st.projectBatch(ec, rows[lo:min(lo+batchSize, len(rows))], items); err != nil {
			return err
		}
	}
	return nil
}

// projectBatch is project over one batch of at most batchSize rows.
func (st *projectStage) projectBatch(ec *execCtx, batch []projRow, items []ReturnItem) error {
	if err := ec.tickN(len(batch)); err != nil {
		return err
	}
	for j, it := range items {
		if pa, ok := it.Expr.(*PropAccess); ok {
			if slot, ok := lookupVar(st.inVars, pa.Var); ok {
				if err := ec.propColumn(batch, slot, pa.Key, j); err != nil {
					return err
				}
				continue
			}
		}
		for _, r := range batch {
			v, err := evalExpr(ec, st.inVars, it.Expr, r.in)
			if err != nil {
				return err
			}
			r.out[j] = v
		}
	}
	return nil
}

// propColumn stores property name of the node each row's input binds
// at slot into column j of its output, reading all of them with one
// property run. A row whose slot holds no node gets null, as scalar
// gives it.
func (ec *execCtx) propColumn(rows []projRow, slot int, name string, j int) error {
	key := ec.propKey(name)
	ids := ec.buf.ids[:0]
	for _, r := range rows {
		if ref, ok := r.in[slot].(NodeRef); ok && key != graph.NilAttr {
			ids = append(ids, graph.NodeID(ref))
		} else {
			r.out[j] = graph.NilValue
		}
	}
	if len(ids) == 0 {
		return nil
	}
	vals := ec.buf.values(len(ids))
	if err := ec.rd.NodePropRun(ids, key, vals); err != nil {
		return err
	}
	for _, r := range rows {
		if _, ok := r.in[slot].(NodeRef); ok {
			r.out[j], vals = vals[0], vals[1:]
		}
	}
	return nil
}

// evalPost evaluates a post-projection expression (WHERE-on-WITH or
// ORDER BY). If the expression's text names a projected alias, the
// projected cell is used; otherwise, for non-aggregating projections,
// the expression is evaluated against the representative input row.
func (st *projectStage) evalPost(ec *execCtx, e Expr, r projRow) (any, error) {
	if txt := exprText(e); txt != "" {
		if slot, ok := st.outVars.lookup(txt); ok {
			return r.out[slot], nil
		}
	}
	if st.hasAgg || r.in == nil {
		// Only aliases (and expressions over them) are visible after
		// aggregation.
		return evalExpr(ec, st.outVars, e, r.out)
	}
	// Try the original bindings first; fall back to aliases.
	v, err := evalExpr(ec, st.inVars, e, r.in)
	if err != nil {
		return evalExpr(ec, st.outVars, e, r.out)
	}
	return v, nil
}

// exprText renders simple expressions to their canonical source text for
// alias matching (Var "c" -> "c", PropAccess u.uid -> "u.uid").
func exprText(e Expr) string {
	switch x := e.(type) {
	case *Var:
		return x.Name
	case *PropAccess:
		return x.Var + "." + x.Key
	}
	return ""
}

// aggregate groups rows by the non-aggregate items and evaluates the
// aggregate items per group.
func (st *projectStage) aggregate(ec *execCtx, in []row) ([]projRow, error) {
	type group struct {
		keyCells []any
		rows     []row
	}
	groups := map[string]*group{}
	var order []string

	var keys []ReturnItem // the grouping items, in order
	var aggItems []int
	for i, it := range st.clause.Items {
		if hasAggregate(it.Expr) {
			aggItems = append(aggItems, i)
		} else {
			keys = append(keys, it)
		}
	}
	// The key cells of a chunk of rows are projected together.
	for lo := 0; lo < len(in); lo += batchSize {
		part := ec.buf.projRows(min(batchSize, len(in)-lo))
		for k := range part {
			part[k] = projRow{out: make(row, len(keys)), in: in[lo+k]}
		}
		if err := st.project(ec, part, keys); err != nil {
			return nil, err
		}
		for _, p := range part {
			key := ""
			for _, v := range p.out {
				key += cellKey(v) + "|"
			}
			g, ok := groups[key]
			if !ok {
				g = &group{keyCells: p.out}
				groups[key] = g
				order = append(order, key)
			}
			g.rows = append(g.rows, p.in)
		}
	}
	// Aggregation over zero rows with no grouping keys yields one row
	// (count(*) = 0).
	if len(in) == 0 && len(keys) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	var out []projRow
	for _, k := range order {
		g := groups[k]
		nr := make(row, len(st.clause.Items))
		// The key cells fill the items that are not aggregates, in order.
		cells, aggs := g.keyCells, aggItems
		for i := range nr {
			if len(aggs) > 0 && aggs[0] == i {
				aggs = aggs[1:]
				continue
			}
			nr[i], cells = cells[0], cells[1:]
		}
		for _, idx := range aggItems {
			v, err := evalAggregate(ec, st.inVars, st.clause.Items[idx].Expr, g.rows)
			if err != nil {
				return nil, err
			}
			nr[idx] = v
		}
		var rep row
		if len(g.rows) > 0 {
			rep = g.rows[0]
		}
		out = append(out, projRow{out: nr, in: rep})
	}
	return out, nil
}
