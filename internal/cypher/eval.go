package cypher

import (
	"fmt"

	"twigraph/internal/graph"
)

// evalExpr evaluates an expression against one row. vars may be nil for
// expressions known to be row-independent (literals and parameters,
// e.g. index-seek values).
func evalExpr(ec *execCtx, vars *varMap, e Expr, r row) (any, error) {
	switch x := e.(type) {
	case *Lit, *Param, *PropAccess:
		v, _, err := scalar(ec, vars, e, r)
		if err != nil {
			return nil, err
		}
		return v, nil
	case *Var:
		slot, ok := lookupVar(vars, x.Name)
		if !ok {
			return nil, fmt.Errorf("cypher: unknown variable %q", x.Name)
		}
		return ec.cellAt(r, slot), nil
	case *UnaryOp:
		v, err := evalExpr(ec, vars, x.X, r)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			if cellIsNull(v) {
				return graph.NilValue, nil
			}
			return boolCell(!cellTruth(v)), nil
		case "-":
			gv, ok := v.(graph.Value)
			if !ok {
				return nil, fmt.Errorf("cypher: cannot negate %T", v)
			}
			if gv.Kind() == graph.KindFloat {
				return graph.FloatValue(-gv.Float()), nil
			}
			return graph.IntValue(-gv.Int()), nil
		}
		return nil, fmt.Errorf("cypher: unknown unary op %q", x.Op)
	case *BinOp:
		return evalBinOp(ec, vars, x, r)
	case *FuncCall:
		return evalFunc(ec, vars, x, r)
	case *PatternPred:
		ok, err := evalPatternPred(ec, vars, x, r)
		if err != nil {
			return nil, err
		}
		return boolCell(ok), nil
	}
	return nil, fmt.Errorf("cypher: cannot evaluate %T", e)
}

// The two boolean cells, boxed once: predicates return these instead of
// boxing a fresh graph.Value per row.
var cellTrue, cellFalse any = graph.BoolValue(true), graph.BoolValue(false)

func boolCell(b bool) any {
	if b {
		return cellTrue
	}
	return cellFalse
}

// scalar evaluates literals, parameters and property accesses straight
// to a graph.Value, without boxing; ok is false (and nothing is
// evaluated) for every other expression.
func scalar(ec *execCtx, vars *varMap, e Expr, r row) (v graph.Value, ok bool, err error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, true, nil
	case *Param:
		v, ok := ec.params[x.Name]
		if !ok {
			return graph.NilValue, true, fmt.Errorf("cypher: missing parameter $%s", x.Name)
		}
		return v, true, nil
	case *PropAccess:
		slot, ok := lookupVar(vars, x.Var)
		if !ok {
			return graph.NilValue, true, fmt.Errorf("cypher: unknown variable %q", x.Var)
		}
		ref, ok := ec.nodeAt(r, slot)
		if !ok {
			return graph.NilValue, true, nil // unbound, or not a node
		}
		key := ec.propKey(x.Key)
		if key == graph.NilAttr {
			return graph.NilValue, true, nil
		}
		v, err := ec.rd.NodeProp(graph.NodeID(ref), key)
		return v, true, err
	}
	return graph.NilValue, false, nil
}

// compareScalars applies a comparison operator to two scalars with the
// same null rules as the boxed path: = and <> are false when either
// side is null, and so is every ordering comparison. ok is false for
// non-comparison operators.
func compareScalars(op string, a, b graph.Value) (result, ok bool) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return false, false
	}
	if a.IsNil() || b.IsNil() {
		return false, true
	}
	switch op {
	case "=":
		return a.Equal(b), true
	case "<>":
		return !a.Equal(b), true
	}
	c := a.Compare(b)
	switch op {
	case "<":
		return c < 0, true
	case "<=":
		return c <= 0, true
	case ">":
		return c > 0, true
	}
	return c >= 0, true
}

func lookupVar(vars *varMap, name string) (int, bool) {
	if vars == nil {
		return 0, false
	}
	return vars.lookup(name)
}

func evalBinOp(ec *execCtx, vars *varMap, x *BinOp, r row) (any, error) {
	// Short-circuit logical operators.
	switch x.Op {
	case "AND":
		l, err := evalExpr(ec, vars, x.L, r)
		if err != nil {
			return nil, err
		}
		if !cellIsNull(l) && !cellTruth(l) {
			return cellFalse, nil
		}
		rv, err := evalExpr(ec, vars, x.R, r)
		if err != nil {
			return nil, err
		}
		return boolCell(cellTruth(l) && cellTruth(rv)), nil
	case "OR":
		l, err := evalExpr(ec, vars, x.L, r)
		if err != nil {
			return nil, err
		}
		if cellTruth(l) {
			return cellTrue, nil
		}
		rv, err := evalExpr(ec, vars, x.R, r)
		if err != nil {
			return nil, err
		}
		return boolCell(cellTruth(rv)), nil
	case "XOR":
		l, err := evalExpr(ec, vars, x.L, r)
		if err != nil {
			return nil, err
		}
		rv, err := evalExpr(ec, vars, x.R, r)
		if err != nil {
			return nil, err
		}
		return boolCell(cellTruth(l) != cellTruth(rv)), nil
	}

	// Scalar operands stay unboxed; a comparison of two of them never
	// boxes at all.
	var l, rv any
	ls, lScalar, err := scalar(ec, vars, x.L, r)
	if !lScalar {
		l, err = evalExpr(ec, vars, x.L, r)
	}
	if err != nil {
		return nil, err
	}
	rs, rScalar, err := scalar(ec, vars, x.R, r)
	if !rScalar {
		rv, err = evalExpr(ec, vars, x.R, r)
	}
	if err != nil {
		return nil, err
	}
	if lScalar && rScalar {
		if b, ok := compareScalars(x.Op, ls, rs); ok {
			return boolCell(b), nil
		}
	}
	if lScalar {
		l = ls
	}
	if rScalar {
		rv = rs
	}
	switch x.Op {
	case "=":
		return boolCell(cellEqual(l, rv)), nil
	case "<>":
		if cellIsNull(l) || cellIsNull(rv) {
			return cellFalse, nil
		}
		return boolCell(!cellEqual(l, rv)), nil
	case "<", "<=", ">", ">=":
		lv, ok1 := l.(graph.Value)
		rg, ok2 := rv.(graph.Value)
		if !ok1 || !ok2 {
			return cellFalse, nil
		}
		b, _ := compareScalars(x.Op, lv, rg)
		return boolCell(b), nil
	case "IN":
		list, ok := rv.(ListVal)
		if !ok {
			return cellFalse, nil
		}
		for _, item := range list {
			if cellEqual(l, item) {
				return cellTrue, nil
			}
		}
		return cellFalse, nil
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, rv)
	}
	return nil, fmt.Errorf("cypher: unknown operator %q", x.Op)
}

func evalArith(op string, l, r any) (any, error) {
	lv, ok1 := l.(graph.Value)
	rv, ok2 := r.(graph.Value)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("cypher: arithmetic on non-scalars")
	}
	if op == "+" && (lv.Kind() == graph.KindString || rv.Kind() == graph.KindString) {
		return graph.StringValue(scalarString(lv) + scalarString(rv)), nil
	}
	if lv.Kind() == graph.KindFloat || rv.Kind() == graph.KindFloat {
		a, b := lv.Float(), rv.Float()
		switch op {
		case "+":
			return graph.FloatValue(a + b), nil
		case "-":
			return graph.FloatValue(a - b), nil
		case "*":
			return graph.FloatValue(a * b), nil
		case "/":
			if b == 0 {
				return nil, fmt.Errorf("cypher: division by zero")
			}
			return graph.FloatValue(a / b), nil
		case "%":
			return nil, fmt.Errorf("cypher: %% on floats")
		}
	}
	a, b := lv.Int(), rv.Int()
	switch op {
	case "+":
		return graph.IntValue(a + b), nil
	case "-":
		return graph.IntValue(a - b), nil
	case "*":
		return graph.IntValue(a * b), nil
	case "/":
		if b == 0 {
			return nil, fmt.Errorf("cypher: division by zero")
		}
		return graph.IntValue(a / b), nil
	case "%":
		if b == 0 {
			return nil, fmt.Errorf("cypher: modulo by zero")
		}
		return graph.IntValue(a % b), nil
	}
	return nil, fmt.Errorf("cypher: unknown arithmetic op %q", op)
}

func scalarString(v graph.Value) string {
	if v.Kind() == graph.KindString {
		return v.Str()
	}
	return v.String()
}

func evalFunc(ec *execCtx, vars *varMap, x *FuncCall, r row) (any, error) {
	if isAggregateFunc(x.Name) {
		return nil, fmt.Errorf("cypher: aggregate %s outside aggregation context", x.Name)
	}
	switch x.Name {
	case "length":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cypher: length wants 1 argument")
		}
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		switch t := v.(type) {
		case PathVal:
			return graph.IntValue(int64(t.Length())), nil
		case ListVal:
			return graph.IntValue(int64(len(t))), nil
		case graph.Value:
			if t.Kind() == graph.KindString {
				return graph.IntValue(int64(len(t.Str()))), nil
			}
		}
		return graph.NilValue, nil
	case "size":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cypher: size wants 1 argument")
		}
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		if lv, ok := v.(ListVal); ok {
			return graph.IntValue(int64(len(lv))), nil
		}
		if gv, ok := v.(graph.Value); ok && gv.Kind() == graph.KindString {
			return graph.IntValue(int64(len(gv.Str()))), nil
		}
		return graph.NilValue, nil
	case "id":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cypher: id wants 1 argument")
		}
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		switch t := v.(type) {
		case NodeRef:
			return graph.IntValue(int64(t)), nil
		case RelRef:
			return graph.IntValue(int64(t)), nil
		}
		return graph.NilValue, nil
	case "exists":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cypher: exists wants 1 argument")
		}
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		if b, ok := v.(graph.Value); ok && b.Kind() == graph.KindBool {
			return b, nil // exists(pattern) already boolean
		}
		return graph.BoolValue(!cellIsNull(v)), nil
	case "labels":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cypher: labels wants 1 argument")
		}
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		if ref, ok := v.(NodeRef); ok {
			n, err := ec.rd.NodeByID(graph.NodeID(ref))
			if err != nil {
				return nil, err
			}
			return ListVal{graph.StringValue(ec.db.LabelName(n.Label))}, nil
		}
		return graph.NilValue, nil
	}
	return nil, fmt.Errorf("cypher: unknown function %s", x.Name)
}

// evalAggregate evaluates an aggregate-containing item over a group of
// rows. The expression must be a bare aggregate call or an arithmetic
// combination thereof.
func evalAggregate(ec *execCtx, vars *varMap, e Expr, rows []row) (any, error) {
	switch x := e.(type) {
	case *FuncCall:
		if !isAggregateFunc(x.Name) {
			return nil, fmt.Errorf("cypher: %s is not an aggregate", x.Name)
		}
		return applyAggregate(ec, vars, x, rows)
	case *BinOp:
		l, err := evalAggregateOperand(ec, vars, x.L, rows)
		if err != nil {
			return nil, err
		}
		r, err := evalAggregateOperand(ec, vars, x.R, rows)
		if err != nil {
			return nil, err
		}
		return evalArith(x.Op, l, r)
	case *UnaryOp:
		v, err := evalAggregateOperand(ec, vars, x.X, rows)
		if err != nil {
			return nil, err
		}
		if gv, ok := v.(graph.Value); ok && x.Op == "-" {
			return graph.IntValue(-gv.Int()), nil
		}
		return nil, fmt.Errorf("cypher: unary %s over aggregate", x.Op)
	}
	return nil, fmt.Errorf("cypher: unsupported aggregate expression")
}

func evalAggregateOperand(ec *execCtx, vars *varMap, e Expr, rows []row) (any, error) {
	if hasAggregate(e) {
		return evalAggregate(ec, vars, e, rows)
	}
	if len(rows) == 0 {
		return graph.NilValue, nil
	}
	return evalExpr(ec, vars, e, rows[0])
}

func applyAggregate(ec *execCtx, vars *varMap, x *FuncCall, rows []row) (any, error) {
	if x.Name == "count" && x.Star {
		return graph.IntValue(int64(len(rows))), nil
	}
	if len(x.Args) != 1 {
		return nil, fmt.Errorf("cypher: %s wants 1 argument", x.Name)
	}
	var vals []any
	seen := map[string]bool{}
	for _, r := range rows {
		v, err := evalExpr(ec, vars, x.Args[0], r)
		if err != nil {
			return nil, err
		}
		if cellIsNull(v) {
			continue
		}
		if x.Distinct {
			k := cellKey(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch x.Name {
	case "count":
		return graph.IntValue(int64(len(vals))), nil
	case "collect":
		return ListVal(vals), nil
	case "sum":
		var isum int64
		var fsum float64
		isFloat := false
		for _, v := range vals {
			gv, ok := v.(graph.Value)
			if !ok {
				return nil, fmt.Errorf("cypher: sum over non-scalar")
			}
			if gv.Kind() == graph.KindFloat {
				isFloat = true
			}
			isum += gv.Int()
			fsum += gv.Float()
		}
		if isFloat {
			return graph.FloatValue(fsum), nil
		}
		return graph.IntValue(isum), nil
	case "avg":
		if len(vals) == 0 {
			return graph.NilValue, nil
		}
		var fsum float64
		for _, v := range vals {
			gv, ok := v.(graph.Value)
			if !ok {
				return nil, fmt.Errorf("cypher: avg over non-scalar")
			}
			fsum += gv.Float()
		}
		return graph.FloatValue(fsum / float64(len(vals))), nil
	case "min", "max":
		if len(vals) == 0 {
			return graph.NilValue, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := cellCompare(v, best)
			if (x.Name == "min" && c < 0) || (x.Name == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("cypher: unknown aggregate %s", x.Name)
}

// evalInt evaluates a row-independent integer expression (SKIP/LIMIT).
func evalInt(ec *execCtx, vars *varMap, e Expr, r row) (int, error) {
	v, err := evalExpr(ec, vars, e, r)
	if err != nil {
		return 0, err
	}
	gv, ok := v.(graph.Value)
	if !ok || gv.Kind() != graph.KindInt {
		return 0, fmt.Errorf("cypher: expected integer")
	}
	if gv.Int() < 0 {
		return 0, fmt.Errorf("cypher: negative SKIP/LIMIT")
	}
	return int(gv.Int()), nil
}

// evalPatternPred checks existence of a pattern from bound variables —
// the predicate form `WHERE NOT (a)-[:follows]->(f)`. The first node
// variable must be bound; subsequent nodes may be bound variables,
// anonymous, or fresh names (treated as existentially quantified).
func evalPatternPred(ec *execCtx, vars *varMap, p *PatternPred, r row) (bool, error) {
	nodes, rels := splitChain(p.Parts)
	startSlot, ok := lookupVar(vars, nodes[0].Var)
	if !ok {
		return false, fmt.Errorf("cypher: pattern predicate must start at a bound variable (%q)", nodes[0].Var)
	}
	start, ok := ec.nodeAt(r, startSlot)
	if !ok {
		return false, nil // unmatched OPTIONAL binding
	}
	return existsChain(ec, vars, r, graph.NodeID(start), nodes, rels, 1)
}

// existsChain recursively checks whether the chain suffix starting at
// nodes[idx] can be satisfied from cur.
func existsChain(ec *execCtx, vars *varMap, r row, cur graph.NodeID, nodes []NodePattern, rels []RelPattern, idx int) (bool, error) {
	if idx >= len(nodes) {
		return true, nil
	}
	rel := rels[idx-1]
	t := graph.NilType
	if rel.Type != "" {
		t = ec.db.RelTypeID(rel.Type)
		if t == graph.NilType {
			return false, nil
		}
	}
	target := nodes[idx]
	var want graph.NodeID
	haveTarget := false
	if target.Var != "" {
		if slot, ok := lookupVar(vars, target.Var); ok {
			if ref, ok := ec.nodeAt(r, slot); ok {
				want = graph.NodeID(ref)
				haveTarget = true
			}
		}
	}
	found := false
	var innerErr error
	err := expandPaths(ec, cur, t, rel.Dir, rel.MinHops, rel.MaxHops,
		func(end graph.NodeID, _ []graph.EdgeID) bool {
			if haveTarget && end != want {
				return true
			}
			if target.Label != "" {
				n, err := ec.rd.NodeByID(end)
				if err != nil || n.Label != ec.db.LabelID(target.Label) {
					return true
				}
			}
			ok, err := existsChain(ec, vars, r, end, nodes, rels, idx+1)
			if err != nil {
				innerErr = err
				return false
			}
			if ok {
				found = true
				return false
			}
			return true
		})
	if err != nil {
		return false, err
	}
	if innerErr != nil {
		return false, innerErr
	}
	return found, nil
}
