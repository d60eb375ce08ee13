package cypher

import (
	"fmt"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/qstats"
)

// The planner compiles an AST into a pipeline of stages. Each MATCH
// becomes a matchStage holding primitive steps (anchor, expand, filter);
// WITH and RETURN become projectStages. A MATCH's WHERE is split into
// its AND-conjuncts, and each conjunct is placed on the earliest step
// after which all of its variables are bound, so rows that fail it are
// dropped before they are materialised. Anchor selection is cost-based
// using store statistics: an index seek costs ~1, a label scan costs the
// label cardinality, a full node scan costs the node count, and an
// already-bound variable costs nothing. This mirrors the paper's
// observation that phrasings compile to different plans whose database
// access counts differ.

// varMap assigns row slots to variable names for one pipeline segment.
type varMap struct {
	slots map[string]int
	n     int
}

func newVarMap() *varMap { return &varMap{slots: map[string]int{}} }

func (m *varMap) lookup(name string) (int, bool) {
	s, ok := m.slots[name]
	return s, ok
}

func (m *varMap) bind(name string) int {
	if s, ok := m.slots[name]; ok {
		return s
	}
	s := m.n
	m.n++
	if name != "" {
		m.slots[name] = s
	}
	return s
}

func (m *varMap) clone() *varMap {
	c := &varMap{slots: make(map[string]int, len(m.slots)), n: m.n}
	for k, v := range m.slots {
		c.slots[k] = v
	}
	return c
}

// Prepared is a compiled, cacheable execution plan.
type Prepared struct {
	text     string
	fp       qstats.Fingerprint // literal-normalised statement identity
	profiled bool
	stages   []stage
	columns  []string
}

// Columns returns the result column names.
func (p *Prepared) Columns() []string { return p.columns }

// Fingerprint returns the plan's normalised statement identity — the
// key its executions aggregate under in the engine's query statistics.
func (p *Prepared) Fingerprint() qstats.Fingerprint { return p.fp }

// compile builds the stage pipeline for a parsed query. The statement
// fingerprint is computed here, once per compiled plan, so cached
// plans re-execute with zero fingerprinting cost.
func compile(db *neodb.DB, q *Query, text string) (*Prepared, error) {
	prep := &Prepared{text: text, fp: qstats.Compute(text), profiled: q.Profiled}
	vm := newVarMap()
	var lastProjection *WithClause
	for i, cl := range q.Clauses {
		switch c := cl.(type) {
		case *MatchClause:
			st, err := compileMatch(db, c, vm)
			if err != nil {
				return nil, err
			}
			prep.stages = append(prep.stages, st)
		case *UnwindClause:
			st := &unwindStage{expr: c.Expr, vars: vm.clone(), outSlot: vm.bind(c.Alias), width: vm.n}
			prep.stages = append(prep.stages, st)
		case *WithClause:
			st, nvm, err := compileProjection(db, c, vm)
			if err != nil {
				return nil, err
			}
			prep.stages = append(prep.stages, st)
			vm = nvm
			if c.Final {
				if i != len(q.Clauses)-1 {
					return nil, fmt.Errorf("cypher: RETURN must be the final clause")
				}
				lastProjection = c
			}
		}
	}
	if lastProjection == nil {
		return nil, fmt.Errorf("cypher: missing RETURN")
	}
	for _, it := range lastProjection.Items {
		prep.columns = append(prep.columns, it.Alias)
	}
	return prep, nil
}

// ---------- MATCH compilation ----------

func compileMatch(db *neodb.DB, c *MatchClause, vm *varMap) (*matchStage, error) {
	st := &matchStage{optional: c.Optional}
	for _, pat := range c.Patterns {
		if err := compilePattern(db, pat, vm, st); err != nil {
			return nil, err
		}
	}
	st.vars = vm.clone()
	st.width = vm.n
	if c.Where != nil {
		placeWhere(st, c.Where)
	}
	return st, nil
}

// placeWhere attaches each AND-conjunct of cond to the earliest step
// after which every variable it mentions is bound, or to the last of the
// label and property filters that directly follow that step. Conjuncts
// over slots no step binds — those the input rows carry, or none at all
// — run once per input row, before the first step (after any leading
// filters). Only rows for which every conjunct is true survive, so the
// split keeps WHERE's meaning. A scan step evaluates the leading
// conjuncts that compare a property of its node with a literal or
// parameter a batch of candidates at a time (batchable).
func placeWhere(st *matchStage, cond Expr) {
	boundAt := make([]int, st.width) // slot -> index of the step binding it
	for i := range boundAt {
		boundAt[i] = -1
	}
	for i := len(st.steps) - 1; i >= 0; i-- {
		if b, ok := st.steps[i].(bindingStep); ok {
			for _, slot := range b.binds() {
				boundAt[slot] = i
			}
		}
	}
	for _, conj := range conjuncts(cond, nil) {
		at := -1
		for _, name := range exprVars(conj, nil) {
			if slot, ok := st.vars.lookup(name); ok && boundAt[slot] > at {
				at = boundAt[slot]
			}
		}
		// The pattern's own label and property checks on what the step
		// bound come first: a conjunct must not see (or fail on) a node
		// the pattern rejects.
		for at+1 < len(st.steps) && isNodeFilter(st.steps[at+1]) {
			at++
		}
		w := &st.pre
		if at >= 0 {
			w = st.steps[at].(interface{ placed() *where }).placed()
		}
		w.vars = st.vars
		w.preds = append(w.preds, conj)
	}
	for _, s := range st.steps {
		switch s := s.(type) {
		case *stepLabelScan:
			s.cmps = batchable(s.preds, st.vars, s.slot)
		case *stepIndexSeek:
			s.cmps = batchable(s.preds, st.vars, s.slot)
		case *stepAllNodes:
			s.cmps = batchable(s.preds, st.vars, s.slot)
		}
	}
}

func isNodeFilter(s step) bool {
	switch s.(type) {
	case *stepLabelFilter, *stepPropFilter:
		return true
	}
	return false
}

// conjuncts flattens nested ANDs into their operands, in source order.
func conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// exprVars appends the variable names e mentions: plain references,
// property owners, and every node variable of a pattern predicate (a
// pattern node that names a variable bound in the stage is a join, not
// an existential, so it must be bound before the predicate runs).
func exprVars(e Expr, out []string) []string {
	switch x := e.(type) {
	case *Var:
		out = append(out, x.Name)
	case *PropAccess:
		out = append(out, x.Var)
	case *BinOp:
		out = exprVars(x.R, exprVars(x.L, out))
	case *UnaryOp:
		out = exprVars(x.X, out)
	case *FuncCall:
		for _, a := range x.Args {
			out = exprVars(a, out)
		}
	case *PatternPred:
		for _, p := range x.Parts {
			if !p.IsRel && p.Node.Var != "" {
				out = append(out, p.Node.Var)
			}
		}
	}
	return out
}

func compilePattern(db *neodb.DB, pat Pattern, vm *varMap, st *matchStage) error {
	nodes, rels := splitChain(pat.Parts)
	if pat.ShortestPath {
		if len(rels) != 1 {
			return fmt.Errorf("cypher: shortestPath wants a single relationship pattern")
		}
		fromSlot, ok := vm.lookup(nodes[0].Var)
		if !ok {
			return fmt.Errorf("cypher: shortestPath endpoint %q must be bound", nodes[0].Var)
		}
		toSlot, ok := vm.lookup(nodes[1].Var)
		if !ok {
			return fmt.Errorf("cypher: shortestPath endpoint %q must be bound", nodes[1].Var)
		}
		maxHops := rels[0].MaxHops
		if maxHops < 0 {
			maxHops = 15 // Cypher's default upper bound for shortestPath
		}
		pathSlot := -1
		if pat.Name != "" {
			pathSlot = vm.bind(pat.Name)
		}
		st.steps = append(st.steps, &stepShortestPath{
			pathSlot: pathSlot, fromSlot: fromSlot, toSlot: toSlot,
			relType: rels[0].Type, dir: rels[0].Dir, maxHops: maxHops,
		})
		return nil
	}
	if pat.Name != "" {
		return fmt.Errorf("cypher: named paths are only supported with shortestPath")
	}

	// Assign a slot per chain position. Named variables share slots
	// across mentions; anonymous nodes get fresh slots.
	slots := make([]int, len(nodes))
	bound := make([]bool, len(nodes))
	for i, n := range nodes {
		if n.Var != "" {
			if s, ok := vm.lookup(n.Var); ok {
				slots[i], bound[i] = s, true
				continue
			}
		}
		slots[i] = vm.bind(n.Var)
	}

	// Choose the cheapest anchor position, then expand rightward and
	// leftward from it.
	anchor := chooseAnchor(db, nodes, bound)
	emitAnchor(db, nodes[anchor], slots[anchor], bound[anchor], st)
	reached := make([]bool, len(nodes))
	reached[anchor] = true
	for i := anchor; i+1 < len(nodes); i++ {
		emitExpand(db, vm, rels[i], slots[i], slots[i+1], bound[i+1] || reached[i+1], false, nodes[i+1], st)
		reached[i+1] = true
	}
	for i := anchor; i-1 >= 0; i-- {
		emitExpand(db, vm, rels[i-1], slots[i], slots[i-1], bound[i-1] || reached[i-1], true, nodes[i-1], st)
		reached[i-1] = true
	}
	return nil
}

func splitChain(parts []PatternPart) ([]NodePattern, []RelPattern) {
	var nodes []NodePattern
	var rels []RelPattern
	for _, p := range parts {
		if p.IsRel {
			rels = append(rels, p.Rel)
		} else {
			nodes = append(nodes, p.Node)
		}
	}
	return nodes, rels
}

// chooseAnchor returns the cheapest node position to start matching
// from.
func chooseAnchor(db *neodb.DB, nodes []NodePattern, bound []bool) int {
	best, bestCost := 0, float64(1e18)
	for i, n := range nodes {
		cost := anchorCost(db, n, bound[i])
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

func anchorCost(db *neodb.DB, n NodePattern, bound bool) float64 {
	if bound {
		return 0
	}
	if n.Label != "" {
		label := db.LabelID(n.Label)
		for _, pm := range n.Props {
			key := db.PropKeyID(pm.Key)
			if key != graph.NilAttr && db.HasIndex(label, key) {
				return 1
			}
		}
		return float64(db.LabelCount(label))
	}
	return float64(db.NodeCount())
}

func emitAnchor(db *neodb.DB, n NodePattern, slot int, bound bool, st *matchStage) {
	if bound {
		// Already bound: just verify label/props.
		emitNodeFilters(db, n, slot, st)
		return
	}
	label := graph.NilType
	if n.Label != "" {
		label = db.LabelID(n.Label)
	}
	// Index seek when an equality prop is indexed.
	if label != graph.NilType {
		for _, pm := range n.Props {
			key := db.PropKeyID(pm.Key)
			if key != graph.NilAttr && db.HasIndex(label, key) {
				// Index postings hold only nodes of the indexed label.
				st.steps = append(st.steps, &stepIndexSeek{slot: slot, label: label, key: key, val: pm.Expr})
				emitPropFilters(n, slot, st, pm.Key)
				return
			}
		}
		// The scan yields exactly the label's live nodes (the label scan
		// store is kept exact on create and delete), so only the
		// property constraints need a filter.
		st.steps = append(st.steps, &stepLabelScan{slot: slot, label: label})
		emitPropFilters(n, slot, st, "")
		return
	}
	st.steps = append(st.steps, &stepAllNodes{slot: slot})
	emitNodeFilters(db, n, slot, st)
}

// emitNodeFilters adds label and property-equality filters for a node
// already bound at slot.
func emitNodeFilters(db *neodb.DB, n NodePattern, slot int, st *matchStage) {
	if n.Label != "" {
		st.steps = append(st.steps, &stepLabelFilter{slot: slot, label: db.LabelID(n.Label)})
	}
	emitPropFilters(n, slot, st, "")
}

// emitPropFilters adds the property-equality filters for a node bound at
// slot. skipKey names a property already satisfied by an index seek.
func emitPropFilters(n NodePattern, slot int, st *matchStage, skipKey string) {
	for _, pm := range n.Props {
		if skipKey != "" && pm.Key == skipKey {
			continue
		}
		st.steps = append(st.steps, &stepPropFilter{slot: slot, key: pm.Key, val: pm.Expr})
	}
}

// emitExpand adds an expand step from one chain position to the next,
// filtering the target's label and property constraints afterwards.
func emitExpand(db *neodb.DB, vm *varMap, rel RelPattern, fromSlot, toSlot int, toBound, reversed bool, to NodePattern, st *matchStage) {
	dir := rel.Dir
	if reversed {
		dir = dir.Reverse()
	}
	relSlot := -1
	if rel.Var != "" {
		relSlot = vm.bind(rel.Var) // single-hop binding; lists for var-length
	}
	st.steps = append(st.steps, &stepExpand{
		fromSlot: fromSlot, toSlot: toSlot, relSlot: relSlot,
		relType: rel.Type, dir: dir,
		minHops: rel.MinHops, maxHops: rel.MaxHops,
		toBound: toBound,
	})
	emitNodeFilters(db, to, toSlot, st)
}

// ---------- projection compilation ----------

func compileProjection(db *neodb.DB, c *WithClause, vm *varMap) (*projectStage, *varMap, error) {
	st := &projectStage{clause: c, inVars: vm.clone()}
	out := newVarMap()
	for _, it := range c.Items {
		if _, dup := out.lookup(it.Alias); dup {
			return nil, nil, fmt.Errorf("cypher: duplicate column %q", it.Alias)
		}
		out.bind(it.Alias)
	}
	st.outVars = out
	for _, it := range c.Items {
		if hasAggregate(it.Expr) {
			st.hasAgg = true
			break
		}
	}
	return st, out, nil
}
