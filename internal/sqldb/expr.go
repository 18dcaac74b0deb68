package sqldb

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// colMeta identifies an output or intermediate column: the (aliased) table
// qualifier it came from and its name.
type colMeta struct {
	table string // qualifier (alias or table name), lowercased; "" if none
	name  string // column name, original case
}

// env is what a compiled expression runs in, and its cols and outer chain
// the scope it resolves names against: the current row (if any), the
// group's aggregate slots (while a grouped SELECT projects), the
// statement's parameters, and the outer environment of a subquery.
type env struct {
	cols    []colMeta
	row     []Value
	aggs    []aggState // the group being projected; nil outside one
	params  []Value
	session *Session
	outer   *env
}

// aggregateNames are function names treated as aggregates.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// Value-level operators, applied by the compiled closures.

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

// likeMatch implements SQL LIKE, case-insensitively: % matches any run of
// characters, _ exactly one. It walks both strings once, rune by rune,
// backtracking only to the last % seen — O(len(s)·len(p)).
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, resume := -1, 0 // just past the last % in p, and where s resumes after it
	for si < len(s) {
		sr, sn := utf8.DecodeRuneInString(s[si:])
		if pi < len(p) {
			pr, pn := utf8.DecodeRuneInString(p[pi:])
			switch {
			case pr == '%':
				pi, star, resume = pi+pn, pi+pn, si
				continue
			case pr == '_' || sr == pr || strings.EqualFold(string(sr), string(pr)):
				si, pi = si+sn, pi+pn
				continue
			}
		}
		if star < 0 {
			return false
		}
		_, n := utf8.DecodeRuneInString(s[resume:])
		resume += n // the last % absorbs one more rune
		si, pi = resume, star
	}
	return strings.TrimLeft(p[pi:], "%") == ""
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

// callScalarFunc applies a scalar function to its evaluated arguments.
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
