package cypher

import (
	"context"
	"fmt"
	"sort"
	"time"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
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

	// Algebraic execution: the engine's method knob snapshot for this
	// execution, plan-choice counters, and a dense-accumulator pool for
	// eligible var-length expansions. Per-execution state, never on the
	// (cached, shared) plan steps.
	method  spmat.Method
	spm     *spmat.Metrics
	accPool spmat.AccumPool

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
// db-hit delta and rows produced, across all input rows of its stage.
type opAcc struct {
	name    string
	rows    int
	dbHits  uint64
	elapsed time.Duration
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
		ec.db.CountQueryAbort(err)
		return fmt.Errorf("cypher: query aborted: %w", err)
	}
	return nil
}

// tick is ctxErr on a stride, cheap enough to call from per-record emit
// callbacks inside scan and expand loops.
func (ec *execCtx) tick() error {
	ec.ticks++
	if ec.ticks&1023 != 0 {
		return nil
	}
	return ec.ctxErr()
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
}

func (w *where) placed() *where { return w }

// admit reports whether every conjunct holds on r.
func (w *where) admit(ec *execCtx, r row) (bool, error) {
	for _, p := range w.preds {
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
	if len(w.preds) > 0 {
		ec.candOn, ec.candSlot, ec.cand = true, slot, id
		ok, err := w.admit(ec, cand)
		ec.candOn = false
		if err != nil || !ok {
			return out, err
		}
	}
	nr := cloneRow(cand)
	nr[slot] = id
	return append(out, nr), nil
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

// scan emits one candidate per id of ids, bound at slot on top of r.
func (w *where) scan(ec *execCtx, r row, slot int, ids *bitmap.Bitmap, out []row) ([]row, error) {
	var err error
	ids.ForEach(func(id uint64) bool {
		if err = ec.tick(); err != nil {
			return false
		}
		out, err = w.emit(ec, r, slot, NodeRef(id), out)
		return err == nil
	})
	return out, err
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
		nodes := ec.db.NodesByLabel(s.label)
		if nodes == nil {
			continue
		}
		var err error
		if out, err = s.scan(ec, r, s.slot, nodes, out); err != nil {
			return nil, err
		}
	}
	return out, nil
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
		rows = make([]projRow, 0, len(in))
		for _, r := range in {
			if err := ec.ctxErr(); err != nil {
				return nil, err
			}
			nr := make(row, len(st.clause.Items))
			for i, it := range st.clause.Items {
				nr[i], err = evalExpr(ec, st.inVars, it.Expr, r)
				if err != nil {
					return nil, err
				}
			}
			rows = append(rows, projRow{out: nr, in: r})
		}
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
	// ORDER BY: expressions may reference projected aliases or (for
	// non-aggregating projections) original variables.
	if len(st.clause.OrderBy) > 0 {
		keys := make([][]any, len(rows))
		for i, r := range rows {
			ks := make([]any, len(st.clause.OrderBy))
			for j, si := range st.clause.OrderBy {
				v, err := st.evalPost(ec, si.Expr, r)
				if err != nil {
					return nil, err
				}
				ks[j] = v
			}
			keys[i] = ks
		}
		idxs := make([]int, len(rows))
		for i := range idxs {
			idxs[i] = i
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			for j, si := range st.clause.OrderBy {
				c := cellCompare(keys[idxs[a]][j], keys[idxs[b]][j])
				if c != 0 {
					if si.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		sorted := make([]projRow, len(rows))
		for i, ix := range idxs {
			sorted[i] = rows[ix]
		}
		rows = sorted
	}
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = r.out
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

	var keyItems, aggItems []int
	for i, it := range st.clause.Items {
		if hasAggregate(it.Expr) {
			aggItems = append(aggItems, i)
		} else {
			keyItems = append(keyItems, i)
		}
	}
	for _, r := range in {
		if err := ec.ctxErr(); err != nil {
			return nil, err
		}
		cells := make([]any, len(keyItems))
		k := ""
		for j, idx := range keyItems {
			v, err := evalExpr(ec, st.inVars, st.clause.Items[idx].Expr, r)
			if err != nil {
				return nil, err
			}
			cells[j] = v
			k += cellKey(v) + "|"
		}
		g, ok := groups[k]
		if !ok {
			g = &group{keyCells: cells}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	// Aggregation over zero rows with no grouping keys yields one row
	// (count(*) = 0).
	if len(in) == 0 && len(keyItems) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	var out []projRow
	for _, k := range order {
		g := groups[k]
		nr := make(row, len(st.clause.Items))
		for j, idx := range keyItems {
			nr[idx] = g.keyCells[j]
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
