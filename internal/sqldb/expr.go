package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// colMeta identifies an output or intermediate column: the (aliased) table
// qualifier it came from and its name.
type colMeta struct {
	table string // qualifier (alias or table name), lowercased; "" if none
	name  string // column name, original case
}

// env is the expression evaluation environment: the current row (if any),
// the current group's aggregate slots (while a grouped SELECT projects),
// statement parameters, and a link to the outer environment for
// correlated subqueries. Its cols and outer chain are also the scope
// compiled expressions resolve their column references against.
type env struct {
	cols    []colMeta
	row     []Value
	aggs    []aggState // the group being projected; nil outside one
	params  []Value
	session *Session
	outer   *env
}

func (e *env) child(cols []colMeta, row []Value) *env {
	return &env{cols: cols, row: row, params: e.params, session: e.session, outer: e.outer}
}

// aggregateNames are function names treated as aggregates.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// eval evaluates an expression in the given environment by walking the
// tree: the evaluator of one-shot expressions (VALUES, SET, DEFAULT, CALL
// arguments, LIMIT). Names resolve as they are met. Everything evaluated
// once per row goes through the compiler (compile.go), which shares the
// value-level operators below.
func eval(x Expr, e *env) (Value, error) {
	switch t := x.(type) {
	case *Literal:
		return t.Val, nil
	case *ColumnRef:
		depth, idx, err := resolveColumn(e.cols, e.outer, t.Table, t.Column)
		if err != nil {
			return Null(), err
		}
		for ; depth > 0; depth-- {
			e = e.outer
		}
		if e.row == nil {
			return Null(), errRowContext(t)
		}
		return e.row[idx], nil
	case *ParamRef:
		if t.Index < 0 || t.Index >= len(e.params) {
			return Null(), fmt.Errorf("sqldb: missing value for parameter %d", t.Index+1)
		}
		return e.params[t.Index], nil
	case *BinaryExpr:
		l, err := eval(t.L, e)
		if err != nil || decides(t.Op, l) {
			return l, err
		}
		r, err := eval(t.R, e)
		if err != nil {
			return Null(), err
		}
		return applyBinary(t.Op, l, r)
	case *UnaryExpr:
		v, err := eval(t.X, e)
		if err != nil {
			return Null(), err
		}
		return applyUnary(t.Op, v)
	case *IsNullExpr:
		v, err := eval(t.X, e)
		if err != nil {
			return Null(), err
		}
		return Bool(v.IsNull() != t.Not), nil
	case *BetweenExpr:
		v, err := eval(t.X, e)
		if err != nil {
			return Null(), err
		}
		lo, err := eval(t.Lo, e)
		if err != nil {
			return Null(), err
		}
		hi, err := eval(t.Hi, e)
		if err != nil {
			return Null(), err
		}
		return between(v, lo, hi, t.Not), nil
	case *InExpr:
		return evalIn(t, e)
	case *ExistsExpr:
		res, err := e.session.execSelect(t.Query, e, nil)
		if err != nil {
			return Null(), err
		}
		return Bool((len(res.Rows) > 0) != t.Not), nil
	case *SubqueryExpr:
		res, err := e.session.execSelect(t.Query, e, nil)
		if err != nil {
			return Null(), err
		}
		return scalarResult(res)
	case *FuncCall:
		if aggregateNames[t.Name] {
			return Null(), errAggregateContext(t.Name)
		}
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			v, err := eval(a, e)
			if err != nil {
				return Null(), err
			}
			args[i] = v
		}
		return callScalarFunc(t.Name, args, e.session)
	case *CaseExpr:
		return evalCase(t, e)
	case *NextValueExpr:
		return e.session.nextSequenceValue(t.Sequence)
	}
	return Null(), fmt.Errorf("sqldb: cannot evaluate %T", x)
}

// Value-level operators, shared by eval and the compiled closures.

// decides reports that AND / OR need not evaluate their right operand:
// a FALSE left decides an AND, a TRUE left an OR (and is the result).
func decides(op string, l Value) bool {
	return l.K == KindBool && (op == "AND" && !l.B || op == "OR" && l.B)
}

// applyBinary applies a binary operator to its evaluated operands; for
// AND and OR, to a left operand that did not decide.
func applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "AND", "OR":
		// SQL three-valued logic.
		switch {
		case decides(op, r):
			return r, nil
		case l.IsNull() || r.IsNull():
			return Null(), nil
		}
		return Bool(l.Truth() && r.Truth()), nil // AND of two non-FALSE, OR of two non-TRUE
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := compareValues(l, r)
		if !ok {
			return Null(), nil
		}
		return Bool(cmpMask(op)&(1<<(c+1)) != 0), nil
	case "||", "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if op == "LIKE" {
			return Bool(likeMatch(l.String(), r.String())), nil
		}
		return Str(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(op, l, r)
	}
	return Null(), fmt.Errorf("sqldb: unknown operator %s", op)
}

func applyUnary(op string, v Value) (Value, error) {
	switch {
	case op != "-" && op != "NOT":
		return Null(), fmt.Errorf("sqldb: unknown unary operator %s", op)
	case v.IsNull():
		return Null(), nil
	case op == "NOT" && v.K == KindBool:
		return Bool(!v.B), nil
	case op == "NOT":
		return Null(), fmt.Errorf("sqldb: NOT requires a boolean")
	case v.K == KindInt:
		return Int(-v.I), nil
	case v.K == KindFloat:
		return Float(-v.F), nil
	}
	return Null(), fmt.Errorf("sqldb: cannot negate %s", v.K)
}

func between(v, lo, hi Value, not bool) Value {
	c1, ok1 := compareValues(v, lo)
	c2, ok2 := compareValues(v, hi)
	if !ok1 || !ok2 {
		return Null()
	}
	return Bool((c1 >= 0 && c2 <= 0) != not)
}

func evalArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if op == "+" && (l.K == KindString || r.K == KindString) {
		return Str(l.String() + r.String()), nil
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return Null(), fmt.Errorf("sqldb: arithmetic on non-numeric values (%s %s %s)", l.K, op, r.K)
	}
	if (op == "/" || op == "%") && rf == 0 {
		return Null(), fmt.Errorf("sqldb: division by zero")
	}
	ints := l.K == KindInt && r.K == KindInt
	switch {
	case op == "+" && ints:
		return Int(l.I + r.I), nil
	case op == "-" && ints:
		return Int(l.I - r.I), nil
	case op == "*" && ints:
		return Int(l.I * r.I), nil
	case op == "/" && ints:
		return Int(l.I / r.I), nil
	case op == "%" && ints:
		return Int(l.I % r.I), nil
	case op == "+":
		return Float(lf + rf), nil
	case op == "-":
		return Float(lf - rf), nil
	case op == "*":
		return Float(lf * rf), nil
	case op == "/":
		return Float(lf / rf), nil
	case op == "%":
		return Float(math.Mod(lf, rf)), nil
	}
	return Null(), fmt.Errorf("sqldb: unknown arithmetic operator %s", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatch(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !strings.EqualFold(string(s[0]), string(p[0])) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func evalIn(t *InExpr, e *env) (Value, error) {
	v, err := eval(t.X, e)
	if err != nil {
		return Null(), err
	}
	var candidates []Value
	if t.Query != nil {
		res, err := e.session.execSelect(t.Query, e, nil)
		if err != nil {
			return Null(), err
		}
		if candidates, err = inCandidates(res); err != nil {
			return Null(), err
		}
	} else {
		for _, le := range t.List {
			lv, err := eval(le, e)
			if err != nil {
				return Null(), err
			}
			candidates = append(candidates, lv)
		}
	}
	return inMatch(v, candidates, t.Not), nil
}

// scalarResult is the value of a scalar subquery: its single cell, NULL
// when it returned no row.
func scalarResult(res *Result) (Value, error) {
	if len(res.Rows) == 0 {
		return Null(), nil
	}
	if len(res.Rows) > 1 {
		return Null(), fmt.Errorf("sqldb: scalar subquery returned %d rows", len(res.Rows))
	}
	if len(res.Columns) != 1 {
		return Null(), fmt.Errorf("sqldb: scalar subquery returned %d columns", len(res.Columns))
	}
	return res.Rows[0][0], nil
}

// inCandidates is the candidate list an IN subquery's result supplies.
func inCandidates(res *Result) ([]Value, error) {
	if len(res.Columns) != 1 {
		return nil, fmt.Errorf("sqldb: IN subquery must return one column")
	}
	candidates := make([]Value, len(res.Rows))
	for i, row := range res.Rows {
		candidates[i] = row[0]
	}
	return candidates, nil
}

// inMatch is x [NOT] IN (candidates) in three-valued logic: NULL when x
// is NULL, or when nothing matched and a candidate was NULL.
func inMatch(v Value, candidates []Value, not bool) Value {
	if v.IsNull() {
		return Null()
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if cmp, ok := compareValues(v, c); ok && cmp == 0 {
			return Bool(!not)
		}
	}
	if sawNull {
		return Null()
	}
	return Bool(not)
}

func evalCase(t *CaseExpr, e *env) (Value, error) {
	op, err := Bool(true), error(nil) // a searched CASE compares each WHEN with TRUE
	if t.Operand != nil {
		if op, err = eval(t.Operand, e); err != nil {
			return Null(), err
		}
	}
	for _, w := range t.Whens {
		wv, err := eval(w.When, e)
		if err != nil {
			return Null(), err
		}
		if c, ok := compareValues(op, wv); ok && c == 0 {
			return eval(w.Then, e)
		}
	}
	if t.Else != nil {
		return eval(t.Else, e)
	}
	return Null(), nil
}

// errAggregateContext is what an aggregate raises when it is evaluated
// per row (WHERE, a join condition, another aggregate's argument, or any
// statement that is not a grouped SELECT).
func errAggregateContext(name string) error {
	return fmt.Errorf("sqldb: aggregate %s used outside GROUP BY/aggregate context", name)
}

// strictFuncs are the scalar functions of fixed arity that yield NULL on
// any NULL argument; fn sees the arguments only past both checks.
var strictFuncs = map[string]struct {
	arity int
	fn    func(a []Value) (Value, error)
}{
	"UPPER":  {1, func(a []Value) (Value, error) { return Str(strings.ToUpper(a[0].String())), nil }},
	"LOWER":  {1, func(a []Value) (Value, error) { return Str(strings.ToLower(a[0].String())), nil }},
	"LENGTH": {1, func(a []Value) (Value, error) { return Int(int64(len(a[0].String()))), nil }},
	"TRIM":   {1, func(a []Value) (Value, error) { return Str(strings.TrimSpace(a[0].String())), nil }},
	"ABS": {1, func(a []Value) (Value, error) {
		if a[0].K == KindInt {
			return Int(max(a[0].I, -a[0].I)), nil
		}
		return numeric("ABS of non-numeric value", math.Abs, a[0])
	}},
	"MOD": {2, func(a []Value) (Value, error) { return evalArith("%", a[0], a[1]) }},
	"REPLACE": {3, func(a []Value) (Value, error) {
		return Str(strings.ReplaceAll(a[0].String(), a[1].String(), a[2].String())), nil
	}},
	// POSITION(needle, haystack): 1-based, 0 when absent.
	"POSITION": {2, func(a []Value) (Value, error) {
		return Int(int64(strings.Index(a[1].String(), a[0].String()) + 1)), nil
	}},
	"LEFT": {2, func(a []Value) (Value, error) {
		s, n := a[0].String(), clampLen(a[1], len(a[0].String()))
		return Str(s[:n]), nil
	}},
	"RIGHT": {2, func(a []Value) (Value, error) {
		s, n := a[0].String(), clampLen(a[1], len(a[0].String()))
		return Str(s[len(s)-n:]), nil
	}},
	"SIGN": {1, func(a []Value) (Value, error) {
		f, ok := a[0].AsFloat()
		switch {
		case !ok:
			return Null(), fmt.Errorf("sqldb: SIGN of non-numeric value")
		case f > 0:
			return Int(1), nil
		case f < 0:
			return Int(-1), nil
		}
		return Int(0), nil
	}},
	"POWER": {2, func(a []Value) (Value, error) {
		x, ok1 := a[0].AsFloat()
		y, ok2 := a[1].AsFloat()
		if !ok1 || !ok2 {
			return Null(), fmt.Errorf("sqldb: POWER of non-numeric value")
		}
		return Float(math.Pow(x, y)), nil
	}},
	"SQRT": {1, func(a []Value) (Value, error) {
		if f, ok := a[0].AsFloat(); ok && f >= 0 {
			return Float(math.Sqrt(f)), nil
		}
		return Null(), fmt.Errorf("sqldb: SQRT requires a non-negative number")
	}},
	"FLOOR": {1, func(a []Value) (Value, error) { return numeric("FLOOR of non-numeric value", math.Floor, a[0]) }},
	"CEIL":  {1, func(a []Value) (Value, error) { return numeric("CEILING of non-numeric value", math.Ceil, a[0]) }},
}

// numeric applies f to a numeric value; what is the error for any other.
func numeric(what string, f func(float64) float64, v Value) (Value, error) {
	x, ok := v.AsFloat()
	if !ok {
		return Null(), fmt.Errorf("sqldb: %s", what)
	}
	return Float(f(x)), nil
}

// clampLen reads a length argument, clamped to [0, limit].
func clampLen(v Value, limit int) int {
	n, _ := v.AsInt()
	return int(min(max(n, 0), int64(limit)))
}

// callScalarFunc applies a scalar function to its evaluated arguments;
// both evaluators call it.
func callScalarFunc(name string, args []Value, s *Session) (Value, error) {
	canon := name
	switch name {
	case "INSTR":
		canon = "POSITION"
	case "CEILING":
		canon = "CEIL"
	case "SUBSTRING":
		canon = "SUBSTR"
	}
	if f, ok := strictFuncs[canon]; ok {
		if len(args) != f.arity {
			return Null(), fmt.Errorf("sqldb: %s expects %d argument(s), got %d", name, f.arity, len(args))
		}
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
		}
		return f.fn(args)
	}
	switch canon {
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null(), fmt.Errorf("sqldb: ROUND expects 2 argument(s), got %d", len(args))
		}
		f, ok := args[0].AsFloat()
		p := 1.0
		if len(args) == 2 {
			d, ok2 := args[1].AsInt()
			ok, p = ok && ok2, math.Pow(10, float64(d))
		}
		if !ok {
			if args[0].IsNull() || len(args) == 2 && args[1].IsNull() {
				return Null(), nil
			}
			return Null(), fmt.Errorf("sqldb: ROUND of non-numeric value")
		}
		return Float(math.Round(f*p) / p), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "NULLIF":
		if len(args) != 2 {
			return Null(), fmt.Errorf("sqldb: NULLIF expects 2 argument(s), got %d", len(args))
		}
		if c, ok := compareValues(args[0], args[1]); ok && c == 0 {
			return Null(), nil
		}
		return args[0], nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return Str(b.String()), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Null(), fmt.Errorf("sqldb: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		if int(start) > len(s) {
			return Str(""), nil
		}
		out := s[max(start, 1)-1:]
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null(), nil
			}
			out = out[:clampLen(args[2], len(out))]
		}
		return Str(out), nil
	case "GREATEST", "LEAST":
		if len(args) == 0 {
			return Null(), fmt.Errorf("sqldb: %s expects at least one argument", name)
		}
		best := args[0]
		for _, v := range args[1:] {
			if v.IsNull() || best.IsNull() {
				return Null(), nil
			}
			c, ok := compareValues(v, best)
			if !ok {
				return Null(), fmt.Errorf("sqldb: %s over incomparable values", name)
			}
			if (name == "GREATEST" && c > 0) || (name == "LEAST" && c < 0) {
				best = v
			}
		}
		return best, nil
	case "NEXTVAL":
		if len(args) != 1 {
			return Null(), fmt.Errorf("sqldb: NEXTVAL expects 1 argument(s), got %d", len(args))
		}
		if args[0].K != KindString {
			return Null(), fmt.Errorf("sqldb: NEXTVAL expects a sequence name string")
		}
		return s.nextSequenceValue(args[0].S)
	}
	return Null(), fmt.Errorf("sqldb: unknown function %s", name)
}
