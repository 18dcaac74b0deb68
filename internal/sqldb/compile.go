package sqldb

import (
	"fmt"
	"strings"
)

// Compiled expression execution: predicates and projections of a
// statement are compiled once per execution into closure trees, so the
// per-row cost is a closure call instead of a type-switched AST walk.
// The cached plan's AST stays immutable and shared; compilation output
// is private to one statement execution (a single goroutine), which is
// what lets column references memoize their resolved coordinates.

// evalFn is one compiled expression: closed over its operator and
// operands, open over the row environment.
type evalFn func(*env) (Value, error)

// compileExpr compiles an expression to a closure tree. Compilation
// never fails: shapes the compiler does not specialize (subqueries,
// aggregates, function calls, NEXT VALUE) fall back to a closure around
// eval, preserving its behavior exactly — including for expressions the
// row loop never reaches (short-circuits, empty inputs).
func compileExpr(x Expr) evalFn {
	switch t := x.(type) {
	case *Literal:
		v := t.Val
		return func(*env) (Value, error) { return v, nil }
	case *boundCol:
		idx := t.idx
		return func(e *env) (Value, error) {
			if e.row == nil || idx >= len(e.row) {
				return Null(), fmt.Errorf("sqldb: column referenced outside row context")
			}
			return e.row[idx], nil
		}
	case *ColumnRef:
		return compileColumnRef(t)
	case *ParamRef:
		return compileParamRef(t)
	case *BinaryExpr:
		return compileBinary(t)
	case *UnaryExpr:
		return compileUnary(t)
	case *IsNullExpr:
		xf := compileExpr(t.X)
		not := t.Not
		return func(e *env) (Value, error) {
			v, err := xf(e)
			if err != nil {
				return Null(), err
			}
			return Bool(v.IsNull() != not), nil
		}
	case *BetweenExpr:
		xf, lof, hif := compileExpr(t.X), compileExpr(t.Lo), compileExpr(t.Hi)
		not := t.Not
		return func(e *env) (Value, error) {
			v, err := xf(e)
			if err != nil {
				return Null(), err
			}
			lo, err := lof(e)
			if err != nil {
				return Null(), err
			}
			hi, err := hif(e)
			if err != nil {
				return Null(), err
			}
			c1, ok1 := compareValues(v, lo)
			c2, ok2 := compareValues(v, hi)
			if !ok1 || !ok2 {
				return Null(), nil
			}
			return Bool((c1 >= 0 && c2 <= 0) != not), nil
		}
	case *InExpr:
		if t.Query == nil {
			return compileInList(t)
		}
	case *CaseExpr:
		return compileCase(t)
	}
	return func(e *env) (Value, error) { return eval(x, e) }
}

// compileColumnRef resolves the reference's (scope depth, column index)
// coordinates once, on first evaluation, then reads by position. The
// memoization is sound because one compiled tree serves one statement
// execution, within which the environment's column layout (and its
// outer chain for correlated subqueries) is fixed; resolution failures
// (unknown, ambiguous) are equally permanent for that execution.
func compileColumnRef(t *ColumnRef) evalFn {
	table, name := t.Table, t.Column
	depth, idx := 0, 0
	var resolveErr error
	resolved := false
	return func(e *env) (Value, error) {
		if !resolved {
			depth, idx, resolveErr = resolveColumn(e, table, name)
			resolved = true
		}
		if resolveErr != nil {
			return Null(), resolveErr
		}
		scope := e
		for d := 0; d < depth; d++ {
			scope = scope.outer
		}
		if scope.row == nil {
			return Null(), fmt.Errorf("sqldb: column %s referenced outside row context", name)
		}
		return scope.row[idx], nil
	}
}

// resolveColumn mirrors env.lookupColumn's scoping rules — innermost
// scope first, ambiguity within a scope is an error — but returns the
// coordinates instead of the value.
func resolveColumn(e *env, table, name string) (depth, idx int, err error) {
	d := 0
	for scope := e; scope != nil; scope = scope.outer {
		found := -1
		for i, c := range scope.cols {
			if !strings.EqualFold(c.name, name) {
				continue
			}
			if table != "" && !strings.EqualFold(c.table, table) {
				continue
			}
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %s", name)
			}
			found = i
		}
		if found >= 0 {
			return d, found, nil
		}
		d++
	}
	if table != "" {
		return 0, 0, fmt.Errorf("sqldb: unknown column %s.%s", table, name)
	}
	return 0, 0, fmt.Errorf("sqldb: unknown column %s", name)
}

func compileParamRef(t *ParamRef) evalFn {
	if t.Name != "" {
		name := t.Name
		key := strings.ToLower(name)
		return func(e *env) (Value, error) {
			if e.named != nil {
				if v, ok := e.named[key]; ok {
					return v, nil
				}
			}
			return Null(), fmt.Errorf("sqldb: unbound named parameter :%s", name)
		}
	}
	idx := t.Index
	return func(e *env) (Value, error) {
		if idx < 0 || idx >= len(e.params) {
			return Null(), fmt.Errorf("sqldb: missing value for parameter %d", idx+1)
		}
		return e.params[idx], nil
	}
}

func compileBinary(t *BinaryExpr) evalFn {
	l, r := compileExpr(t.L), compileExpr(t.R)
	switch t.Op {
	case "AND":
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			if lv.K == KindBool && !lv.B {
				return Bool(false), nil
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			if rv.K == KindBool && !rv.B {
				return Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(lv.Truth() && rv.Truth()), nil
		}
	case "OR":
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			if lv.Truth() {
				return Bool(true), nil
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			if rv.Truth() {
				return Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(false), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		op := t.Op
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			c, ok := compareValues(lv, rv)
			if !ok {
				return Null(), nil
			}
			switch op {
			case "=":
				return Bool(c == 0), nil
			case "<>":
				return Bool(c != 0), nil
			case "<":
				return Bool(c < 0), nil
			case "<=":
				return Bool(c <= 0), nil
			case ">":
				return Bool(c > 0), nil
			}
			return Bool(c >= 0), nil
		}
	case "||":
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Str(lv.String() + rv.String()), nil
		}
	case "LIKE":
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(likeMatch(lv.String(), rv.String())), nil
		}
	case "+", "-", "*", "/", "%":
		op := t.Op
		return func(e *env) (Value, error) {
			lv, err := l(e)
			if err != nil {
				return Null(), err
			}
			rv, err := r(e)
			if err != nil {
				return Null(), err
			}
			return evalArith(op, lv, rv)
		}
	}
	// Unknown operator: keep eval's error path.
	return func(e *env) (Value, error) { return evalBinary(t, e) }
}

func compileUnary(t *UnaryExpr) evalFn {
	xf := compileExpr(t.X)
	switch t.Op {
	case "-":
		return func(e *env) (Value, error) {
			v, err := xf(e)
			if err != nil {
				return Null(), err
			}
			switch v.K {
			case KindInt:
				return Int(-v.I), nil
			case KindFloat:
				return Float(-v.F), nil
			case KindNull:
				return Null(), nil
			}
			return Null(), fmt.Errorf("sqldb: cannot negate %s", v.K)
		}
	case "NOT":
		return func(e *env) (Value, error) {
			v, err := xf(e)
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				return Null(), nil
			}
			if v.K != KindBool {
				return Null(), fmt.Errorf("sqldb: NOT requires a boolean")
			}
			return Bool(!v.B), nil
		}
	}
	// Unknown operator: keep eval's error path (operand errors first).
	return func(e *env) (Value, error) { return eval(t, e) }
}

func compileInList(t *InExpr) evalFn {
	xf := compileExpr(t.X)
	list := make([]evalFn, len(t.List))
	for i, le := range t.List {
		list[i] = compileExpr(le)
	}
	not := t.Not
	return func(e *env) (Value, error) {
		v, err := xf(e)
		if err != nil {
			return Null(), err
		}
		// Candidates are evaluated before the NULL test, like evalIn: a
		// candidate error surfaces even when the probe is NULL.
		candidates := make([]Value, len(list))
		for i, lf := range list {
			cv, err := lf(e)
			if err != nil {
				return Null(), err
			}
			candidates[i] = cv
		}
		if v.IsNull() {
			return Null(), nil
		}
		sawNull := false
		for _, c := range candidates {
			if c.IsNull() {
				sawNull = true
				continue
			}
			if cmp, ok := compareValues(v, c); ok && cmp == 0 {
				return Bool(!not), nil
			}
		}
		if sawNull {
			return Null(), nil
		}
		return Bool(not), nil
	}
}

func compileCase(t *CaseExpr) evalFn {
	type arm struct{ when, then evalFn }
	arms := make([]arm, len(t.Whens))
	for i, w := range t.Whens {
		arms[i] = arm{when: compileExpr(w.When), then: compileExpr(w.Then)}
	}
	var elsef evalFn
	if t.Else != nil {
		elsef = compileExpr(t.Else)
	}
	if t.Operand != nil {
		opf := compileExpr(t.Operand)
		return func(e *env) (Value, error) {
			op, err := opf(e)
			if err != nil {
				return Null(), err
			}
			for _, a := range arms {
				wv, err := a.when(e)
				if err != nil {
					return Null(), err
				}
				if c, ok := compareValues(op, wv); ok && c == 0 {
					return a.then(e)
				}
			}
			if elsef != nil {
				return elsef(e)
			}
			return Null(), nil
		}
	}
	return func(e *env) (Value, error) {
		for _, a := range arms {
			wv, err := a.when(e)
			if err != nil {
				return Null(), err
			}
			if wv.Truth() {
				return a.then(e)
			}
		}
		if elsef != nil {
			return elsef(e)
		}
		return Null(), nil
	}
}

// compileExprs compiles a projection list.
func compileExprs(items []Expr) []evalFn {
	fns := make([]evalFn, len(items))
	for i, it := range items {
		fns[i] = compileExpr(it)
	}
	return fns
}
