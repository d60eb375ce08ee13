package cypher

import (
	"fmt"
	"strconv"

	"twigraph/internal/graph"
)

// Parse parses a query string into an AST.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(kind tokenKind) bool {
	if p.cur().kind == kind {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errorf("expected %s, found %q", what, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("cypher: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.acceptKeyword("PROFILE") {
		q.Profiled = true
	} else if p.acceptKeyword("EXPLAIN") {
		q.Profiled = true
	}
	sawReturn := false
	for {
		switch {
		case p.acceptKeyword("OPTIONAL"):
			if !p.acceptKeyword("MATCH") {
				return nil, p.errorf("expected MATCH after OPTIONAL")
			}
			c, err := p.parseMatch(true)
			if err != nil {
				return nil, err
			}
			q.Clauses = append(q.Clauses, c)
		case p.acceptKeyword("MATCH"):
			c, err := p.parseMatch(false)
			if err != nil {
				return nil, err
			}
			q.Clauses = append(q.Clauses, c)
		case p.acceptKeyword("UNWIND"):
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AS") {
				return nil, p.errorf("expected AS in UNWIND")
			}
			name, err := p.expect(tokIdent, "identifier")
			if err != nil {
				return nil, err
			}
			q.Clauses = append(q.Clauses, &UnwindClause{Expr: e, Alias: name.text})
		case p.acceptKeyword("WITH"):
			c, err := p.parseProjection(false)
			if err != nil {
				return nil, err
			}
			q.Clauses = append(q.Clauses, c)
		case p.acceptKeyword("RETURN"):
			c, err := p.parseProjection(true)
			if err != nil {
				return nil, err
			}
			q.Clauses = append(q.Clauses, c)
			sawReturn = true
		default:
			if p.cur().kind == tokEOF {
				if !sawReturn {
					return nil, p.errorf("query must end with RETURN")
				}
				return q, nil
			}
			return nil, p.errorf("unexpected token %q", p.cur().text)
		}
		if sawReturn && p.cur().kind != tokEOF {
			return nil, p.errorf("tokens after RETURN clause: %q", p.cur().text)
		}
	}
}

func (p *parser) parseMatch(optional bool) (*MatchClause, error) {
	c := &MatchClause{Optional: optional}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		c.Patterns = append(c.Patterns, pat)
		if !p.accept(tokComma) {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Where = e
	}
	return c, nil
}

func (p *parser) parsePattern() (Pattern, error) {
	var pat Pattern
	// Optional "p =" prefix.
	if p.cur().kind == tokIdent && p.peek().kind == tokEq {
		pat.Name = p.advance().text
		p.advance() // =
	}
	// shortestPath(...) wrapper.
	if p.cur().kind == tokIdent && (p.cur().text == "shortestPath" || p.cur().text == "shortestpath") {
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return pat, err
		}
		pat.ShortestPath = true
		parts, err := p.parseChain()
		if err != nil {
			return pat, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return pat, err
		}
		pat.Parts = parts
		return pat, nil
	}
	parts, err := p.parseChain()
	if err != nil {
		return pat, err
	}
	pat.Parts = parts
	return pat, nil
}

// parseChain parses node (rel node)*.
func (p *parser) parseChain() ([]PatternPart, error) {
	var parts []PatternPart
	n, err := p.parseNodePattern()
	if err != nil {
		return nil, err
	}
	parts = append(parts, PatternPart{Node: n})
	for p.cur().kind == tokDash || p.cur().kind == tokLArrow {
		r, err := p.parseRelPattern()
		if err != nil {
			return nil, err
		}
		n, err := p.parseNodePattern()
		if err != nil {
			return nil, err
		}
		parts = append(parts, PatternPart{IsRel: true, Rel: r}, PatternPart{Node: n})
	}
	return parts, nil
}

func (p *parser) parseNodePattern() (NodePattern, error) {
	var n NodePattern
	if _, err := p.expect(tokLParen, "("); err != nil {
		return n, err
	}
	if p.cur().kind == tokIdent {
		n.Var = p.advance().text
	}
	if p.accept(tokColon) {
		lbl, err := p.expect(tokIdent, "label")
		if err != nil {
			return n, err
		}
		n.Label = lbl.text
	}
	if p.accept(tokLBrace) {
		for {
			key, err := p.expect(tokIdent, "property key")
			if err != nil {
				return n, err
			}
			if _, err := p.expect(tokColon, ":"); err != nil {
				return n, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return n, err
			}
			n.Props = append(n.Props, PropMatch{Key: key.text, Expr: e})
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRBrace, "}"); err != nil {
			return n, err
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return n, err
	}
	return n, nil
}

func (p *parser) parseRelPattern() (RelPattern, error) {
	r := RelPattern{Dir: graph.Any, MinHops: 1, MaxHops: 1}
	leftArrow := false
	switch p.cur().kind {
	case tokLArrow: // <-
		leftArrow = true
		p.advance()
	case tokDash:
		p.advance()
	default:
		return r, p.errorf("expected relationship pattern")
	}
	if p.accept(tokLBrack) {
		if p.cur().kind == tokIdent {
			r.Var = p.advance().text
		}
		if p.accept(tokColon) {
			typ, err := p.expect(tokIdent, "relationship type")
			if err != nil {
				return r, err
			}
			r.Type = typ.text
		}
		if p.accept(tokStar) {
			// *n, *n..m, *..m, * (unbounded)
			r.MinHops, r.MaxHops = 1, -1
			if p.cur().kind == tokInt {
				n, _ := strconv.Atoi(p.advance().text)
				r.MinHops, r.MaxHops = n, n
			}
			if p.accept(tokDotDot) {
				r.MaxHops = -1
				if p.cur().kind == tokInt {
					m, _ := strconv.Atoi(p.advance().text)
					r.MaxHops = m
				}
			}
		}
		if _, err := p.expect(tokRBrack, "]"); err != nil {
			return r, err
		}
	}
	// Closing dash / arrow.
	switch p.cur().kind {
	case tokArrow: // ->
		if leftArrow {
			return r, p.errorf("relationship cannot point both ways")
		}
		r.Dir = graph.Outgoing
		p.advance()
	case tokDash:
		if leftArrow {
			r.Dir = graph.Incoming
		} else {
			r.Dir = graph.Any
		}
		p.advance()
	default:
		return r, p.errorf("unterminated relationship pattern")
	}
	return r, nil
}

func (p *parser) parseProjection(final bool) (*WithClause, error) {
	c := &WithClause{Final: final}
	if p.acceptKeyword("DISTINCT") {
		c.Distinct = true
	}
	for {
		item, err := p.parseReturnItem()
		if err != nil {
			return nil, err
		}
		c.Items = append(c.Items, item)
		if !p.accept(tokComma) {
			break
		}
	}
	if !final && p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Where = e
	}
	if p.acceptKeyword("ORDER") {
		if !p.acceptKeyword("BY") {
			return nil, p.errorf("expected BY after ORDER")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SortItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			c.OrderBy = append(c.OrderBy, item)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if p.acceptKeyword("SKIP") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Skip = e
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Limit = e
	}
	return c, nil
}

func (p *parser) parseReturnItem() (ReturnItem, error) {
	start := p.cur().pos
	e, err := p.parseExpr()
	if err != nil {
		return ReturnItem{}, err
	}
	item := ReturnItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expect(tokIdent, "alias")
		if err != nil {
			return ReturnItem{}, err
		}
		item.Alias = alias.text
	} else {
		end := p.cur().pos
		if end > len(p.src) {
			end = len(p.src)
		}
		item.Alias = trimSpaces(p.src[start:end])
	}
	return item, nil
}

func trimSpaces(s string) string {
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\n' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\n' || s[0] == '\t') {
		s = s[1:]
	}
	return s
}

// ---------- expressions (precedence climbing) ----------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseXor() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("XOR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "XOR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokEq:
			op = "="
		case tokNeq:
			op = "<>"
		case tokLt:
			op = "<"
		case tokLte:
			op = "<="
		case tokGt:
			op = ">"
		case tokGte:
			op = ">="
		case tokKeyword:
			if p.cur().text == "IN" {
				op = "IN"
			}
		}
		if op == "" {
			return l, nil
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokPlus:
			op = "+"
		case tokDash:
			op = "-"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.cur().kind {
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		case tokPct:
			op = "%"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokDash {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "-", X: x}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Lit{graph.IntValue(i)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return &Lit{graph.FloatValue(f)}, nil
	case tokString:
		p.advance()
		return &Lit{graph.StringValue(t.text)}, nil
	case tokParam:
		p.advance()
		return &Param{t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return &Lit{graph.BoolValue(true)}, nil
		case "FALSE":
			p.advance()
			return &Lit{graph.BoolValue(false)}, nil
		case "NULL":
			p.advance()
			return &Lit{graph.NilValue}, nil
		case "COUNT", "COLLECT", "EXISTS":
			return p.parseFuncCall()
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		// Function call or variable (with optional .prop).
		if p.peek().kind == tokLParen {
			return p.parseFuncCall()
		}
		p.advance()
		if p.accept(tokDot) {
			key, err := p.expect(tokIdent, "property key")
			if err != nil {
				return nil, err
			}
			return &PropAccess{Var: t.text, Key: key.text}, nil
		}
		return &Var{t.text}, nil
	case tokLParen:
		// Either a parenthesised expression or a pattern predicate
		// like (a)-[:follows]->(b). Disambiguate with bounded
		// lookahead: "(ident)" or "(ident:label" followed by -/<-.
		if p.isPatternAhead() {
			parts, err := p.parseChain()
			if err != nil {
				return nil, err
			}
			return &PatternPred{Parts: parts}, nil
		}
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

// isPatternAhead reports whether the upcoming tokens begin a pattern
// predicate rather than a parenthesised expression.
func (p *parser) isPatternAhead() bool {
	// Scan from the current '(' to its matching ')' allowing only the
	// shape of a node pattern, then require '-' or '<-'.
	i := p.pos
	if p.toks[i].kind != tokLParen {
		return false
	}
	i++
	depth := 1
	for i < len(p.toks) && depth > 0 {
		switch p.toks[i].kind {
		case tokLParen:
			depth++
		case tokRParen:
			depth--
		case tokEOF:
			return false
		}
		i++
	}
	if i >= len(p.toks) {
		return false
	}
	k := p.toks[i].kind
	return k == tokDash || k == tokLArrow
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.advance().text
	fc := &FuncCall{Name: lowerASCII(name)}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	if p.accept(tokStar) {
		fc.Star = true
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if p.cur().kind != tokRParen {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
