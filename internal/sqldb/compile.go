package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Compiled expression execution: every expression a statement evaluates —
// per row, or once, as a VALUES cell, DEFAULT, CALL argument or LIMIT — is
// compiled into a closure tree when its plan is built, once per statement
// slot (slot.go) or per execution without one, and run by one execution at
// a time; the AST stays immutable and shared. Names resolve when the tree
// is built, against the scope's layout: an unknown or ambiguous column is
// an error whether or not a row ever reaches it, and a column read is one
// index. A parameter folded into a comparison, a probe
// key or a cell is a bind, re-filled per execution.

// evalFn is one compiled expression: closed over its operator and
// operands, open over the row environment.
type evalFn func(*env) (Value, error)

// predFn is an expression compiled for its truth only (WHERE, ON): NULL
// and non-boolean results are false.
type predFn func(*env) (bool, error)

// compiler compiles the expressions of one scope. The first resolution
// error sticks in err (the closures built after it are never run); lo,
// hi and unsafe describe what has been compiled since the last reset.
type compiler struct {
	e     *env       // scope: layout, and the parameters constants fold from
	cols  []colMeta  // the part of the layout names resolve against (a join's ON sees only its own FROM entry)
	shift int        // row position of cols[0]
	srcs  []source   // FROM entries, to attribute a column to its source
	aggs  *[]aggSpec // set while compiling a grouped SELECT's output: aggregates become slots
	tree  *planTree  // a slotted plan's binds (nil: planned for one execution)
	err   error

	lo, hi int  // lowest and highest source referenced at depth 0 (hi < 0: none)
	unsafe bool // may raise a data-dependent error: evaluate it no earlier than written
	sawAgg bool // an aggregate call was compiled
}

func newCompiler(e *env, tree *planTree) compiler {
	return compiler{e: e, cols: e.cols, tree: tree, lo: math.MaxInt, hi: -1}
}

func (c *compiler) reset() { c.lo, c.hi, c.unsafe = math.MaxInt, -1, false }

func (c *compiler) fail(err error) evalFn {
	if c.err == nil {
		c.err = err
	}
	return func(*env) (Value, error) { return Null(), err }
}

// resolve finds a reference's row position, booking the column to its
// source.
func (c *compiler) resolve(t *ColumnRef) (idx int, err error) {
	if idx, err = resolveColumn(c.cols, t.Table, t.Column); err != nil {
		return 0, err
	}
	idx += c.shift
	k := 0
	for k+1 < len(c.srcs) && c.srcs[k+1].off <= idx {
		k++
	}
	c.lo, c.hi = min(c.lo, k), max(c.hi, k)
	return idx, nil
}

// column matches a plain column reference and returns its position.
func (c *compiler) column(x Expr) (int, bool) {
	if t, isRef := x.(*ColumnRef); isRef {
		idx, err := c.resolve(t)
		return idx, err == nil
	}
	return 0, false
}

// constant folds a literal or a bound parameter.
func (c *compiler) constant(x Expr) (Value, bool) {
	switch t := x.(type) {
	case *Literal:
		return t.Val, true
	case *ParamRef:
		return paramValue(t, c.e.params)
	}
	return Value{}, false
}

// paramValue reads a parameter's bound value.
func paramValue(t *ParamRef, params []Value) (Value, bool) {
	if t.Index >= 0 && t.Index < len(params) {
		return params[t.Index], true
	}
	return Value{}, false
}

// need records, for a slotted plan, that x — when a parameter — was read
// at planning, into dst when its value was folded there (see bind).
func (c *compiler) need(x Expr, dst *Value) {
	if ref, ok := x.(*ParamRef); ok && c.tree != nil {
		c.tree.binds = append(c.tree.binds, bind{ref, dst})
	}
}

// colConst matches `column <op> constant` either way round; kx is the
// constant's operand (t.L when the column was the right one).
func (c *compiler) colConst(t *BinaryExpr) (idx int, k Value, kx Expr, ok bool) {
	if k, ok = c.constant(t.R); ok {
		idx, ok = c.column(t.L)
		kx = t.R
	} else if k, ok = c.constant(t.L); ok {
		idx, ok = c.column(t.R)
		kx = t.L
	}
	return idx, k, kx, ok
}

func errRowContext(t *ColumnRef) error {
	return fmt.Errorf("sqldb: column %s referenced outside row context", t.Column)
}

// resolveColumn finds a reference's column index; an ambiguous name is an
// error.
func resolveColumn(cols []colMeta, table, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(c.name, name) || table != "" && !strings.EqualFold(c.table, table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqldb: ambiguous column %s", name)
		}
		found = i
	}
	switch {
	case found >= 0:
		return found, nil
	case table != "":
		return 0, fmt.Errorf("sqldb: unknown column %s.%s", table, name)
	}
	return 0, fmt.Errorf("sqldb: unknown column %s", name)
}

// cmpMask encodes a comparison operator as the set of compareValues
// outcomes it accepts: bit 0 less, bit 1 equal, bit 2 greater.
func cmpMask(op string) uint8 {
	switch op {
	case "=":
		return 2
	case "<>":
		return 5
	case "<":
		return 1
	case "<=":
		return 3
	case ">":
		return 4
	}
	return 6 // >=
}

// pred compiles an expression for its truth. AND and OR short-circuit on
// truth alone — a NULL left operand already decides an AND — and a
// comparison of a column with a constant reads the row in place.
func (c *compiler) pred(x Expr) predFn {
	if t, ok := x.(*BinaryExpr); ok {
		switch t.Op {
		case "AND", "OR":
			l, r := c.pred(t.L), c.pred(t.R)
			and := t.Op == "AND"
			return func(e *env) (bool, error) {
				if ok, err := l(e); err != nil || ok != and {
					return ok, err
				}
				return r(e)
			}
		case "=", "<>", "<", "<=", ">", ">=":
			idx, k, kx, ok := c.colConst(t)
			if !ok {
				break
			}
			ref, _ := t.L.(*ColumnRef)
			mask := cmpMask(t.Op)
			if kx == t.L {
				ref = t.R.(*ColumnRef)
				mask = mask&2 | mask>>2 | (mask&1)<<2 // swap less and greater
			}
			if _, param := kx.(*ParamRef); param && c.tree != nil {
				cell := new(Value)
				*cell = k
				c.need(kx, cell)
				return func(e *env) (bool, error) { return colCmp(e, idx, cell, mask, ref) }
			}
			return func(e *env) (bool, error) { return colCmp(e, idx, &k, mask, ref) }
		}
	}
	fn := c.compile(x)
	return func(e *env) (bool, error) {
		v, err := fn(e)
		return v.Truth(), err
	}
}

// colCmp compares the row's column idx with *k, accepting the outcomes
// in mask (see cmpMask).
func colCmp(e *env, idx int, k *Value, mask uint8, ref *ColumnRef) (bool, error) {
	if e.row == nil {
		return false, errRowContext(ref)
	}
	cmp, ok := e.row[idx].compare(k)
	return ok && mask&(1<<(cmp+1)) != 0, nil
}

// compile compiles an expression to a closure tree.
func (c *compiler) compile(x Expr) evalFn {
	switch t := x.(type) {
	case *Literal:
		v := t.Val
		return func(*env) (Value, error) { return v, nil }
	case *ColumnRef:
		idx, err := c.resolve(t)
		if err != nil {
			return c.fail(err)
		}
		return func(e *env) (Value, error) {
			if e.row == nil {
				return Null(), errRowContext(t)
			}
			return e.row[idx], nil
		}
	case *ParamRef:
		if _, ok := c.constant(t); !ok {
			c.unsafe = true
			if c.tree != nil {
				c.tree.discard = true
			}
		}
		c.need(t, nil)
		return func(e *env) (Value, error) {
			if v, ok := paramValue(t, e.params); ok {
				return v, nil
			}
			return Null(), fmt.Errorf("sqldb: missing value for parameter %d", t.Index+1)
		}
	case *BinaryExpr:
		return c.binary(t)
	case *UnaryExpr:
		return c.unary(t)
	case *IsNullExpr:
		xf := c.compile(t.X)
		return func(e *env) (Value, error) {
			v, err := xf(e)
			if err != nil {
				return Null(), err
			}
			return Bool(v.IsNull() != t.Not), nil
		}
	case *InExpr:
		return c.in(t)
	case *FuncCall:
		if slices.Contains(aggregateNames, t.Name) {
			return c.aggregate(t)
		}
		c.unsafe = true
		args := c.compileAll(t.Args)
		return func(e *env) (Value, error) {
			vals := make([]Value, len(args))
			for i, fn := range args {
				v, err := fn(e)
				if err != nil {
					return Null(), err
				}
				vals[i] = v
			}
			return callScalarFunc(t.Name, vals, e.session)
		}
	}
	return c.fail(fmt.Errorf("sqldb: cannot evaluate %T", x))
}

// cell is one value an INSERT row or a CALL writes, read like a getter:
// a literal or a parameter in place — a parameter's value is a bind,
// re-filled per execution — anything else through its closure.
type cell struct {
	pos int // the column it fills (a CALL's: the argument's position)
	val Value
	fn  evalFn // nil: val
}

// cell compiles x into dst.
func (c *compiler) cell(dst *cell, x Expr) {
	if v, ok := c.constant(x); ok {
		dst.val = v
		c.need(x, &dst.val)
		return
	}
	dst.fn = c.compile(x)
}

// fill writes the cells' values into row, each at its position.
func fill(row []Value, cells []cell, e *env) error {
	for i := range cells {
		c := &cells[i]
		if c.fn == nil {
			row[c.pos] = c.val
			continue
		}
		v, err := c.fn(e)
		if err != nil {
			return err
		}
		row[c.pos] = v
	}
	return nil
}

func (c *compiler) compileAll(xs []Expr) []evalFn {
	fns := make([]evalFn, len(xs))
	for i, x := range xs {
		fns[i] = c.compile(x)
	}
	return fns
}

func (c *compiler) binary(t *BinaryExpr) evalFn {
	l, r, op := c.compile(t.L), c.compile(t.R), t.Op
	switch op {
	case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "||":
	default: // arithmetic, or an operator only a hand-built tree can hold
		c.unsafe = true
	}
	return func(e *env) (Value, error) {
		lv, err := l(e)
		if err != nil || decides(op, lv) {
			return lv, err
		}
		rv, err := r(e)
		if err != nil {
			return Null(), err
		}
		return applyBinary(op, lv, rv)
	}
}

func (c *compiler) unary(t *UnaryExpr) evalFn {
	xf, op := c.compile(t.X), t.Op
	c.unsafe = true // a NOT over a non-boolean, a minus over a string
	return func(e *env) (Value, error) {
		v, err := xf(e)
		if err != nil {
			return Null(), err
		}
		return applyUnary(op, v)
	}
}

func (c *compiler) in(t *InExpr) evalFn {
	xf, list := c.compile(t.X), c.compileAll(t.List)
	return func(e *env) (Value, error) {
		v, err := xf(e)
		if err != nil {
			return Null(), err
		}
		// As in evalIn, a candidate's error surfaces even for a NULL probe.
		candidates := make([]Value, len(list))
		for i, lf := range list {
			if candidates[i], err = lf(e); err != nil {
				return Null(), err
			}
		}
		return inMatch(v, candidates, t.Not), nil
	}
}

// Aggregates. Every aggregate call of a grouped SELECT's output clauses
// gets an accumulator slot; each group carries one aggState per slot, fed
// as rows stream past and read through the group's env by the projection
// and ORDER BY.

// aggSpec is one aggregate call of a grouped SELECT.
type aggSpec struct {
	op       aggOp
	star     bool
	distinct bool
	arg      getter
}

// aggOp is an aggregate's function, decided at planning: its name's
// position in aggregateNames.
type aggOp uint8

const aggCount, aggSum, aggAvg, aggMin, aggMax aggOp = 0, 1, 2, 3, 4

// aggState is one slot of one group.
type aggState struct {
	n      int64 // rows for COUNT(*), else the non-NULL (DISTINCT) values met
	floats bool  // SUM met a non-integer
	fi     int64
	ff     float64
	best   Value
	seen   map[string]int
	err    error // first argument error; raised when the slot is read
	bad    bool  // a value SUM/AVG cannot add or MIN/MAX cannot compare
}

// aggregate compiles an aggregate call: a slot read in group context, the
// per-row misuse error anywhere else (raised only if a row gets there).
func (c *compiler) aggregate(t *FuncCall) evalFn {
	c.unsafe, c.sawAgg = true, true
	if c.aggs == nil {
		return func(*env) (Value, error) { return Null(), errAggregateContext(t.Name) }
	}
	sp := aggSpec{op: aggOp(slices.Index(aggregateNames, t.Name)), star: t.Name == "COUNT" && t.Star, distinct: t.Distinct}
	if !sp.star {
		if len(t.Args) != 1 {
			return func(*env) (Value, error) {
				return Null(), fmt.Errorf("sqldb: aggregate %s requires one argument", t.Name)
			}
		}
		aggs := c.aggs
		c.aggs = nil // the argument is evaluated per row
		if col, ok := c.column(t.Args[0]); ok {
			sp.arg.col = col
		} else {
			sp.arg.fn = c.compile(t.Args[0])
		}
		c.aggs = aggs
	}
	slot := len(*c.aggs)
	*c.aggs = append(*c.aggs, sp)
	return func(e *env) (Value, error) { return e.aggs[slot].result(sp.op, t.Name) }
}

// add feeds the slot the row in e.
func (a *aggState) add(sp *aggSpec, e *env, kb *[]byte) {
	if sp.star {
		a.n++
		return
	}
	if a.err != nil {
		return
	}
	var val Value
	v := &val
	if sp.arg.fn == nil {
		v = &e.row[sp.arg.col]
	} else if val, a.err = sp.arg.fn(e); a.err != nil {
		return
	}
	if v.IsNull() {
		return
	}
	if sp.distinct {
		*kb = appendValueKey((*kb)[:0], *v)
		if n := len(a.seen); numberKey(&a.seen, *kb, n) < n {
			return
		}
	}
	a.n++
	switch {
	case sp.op == aggCount:
	case sp.op <= aggAvg && v.K == KindInt:
		a.fi += v.I
		a.ff += float64(v.I)
	case sp.op <= aggAvg:
		f, ok := v.AsFloat()
		a.bad = a.bad || !ok
		a.ff += f
		a.floats = true
	case a.n == 1:
		a.best = *v
	default:
		c, ok := v.compare(&a.best)
		a.bad = a.bad || !ok
		if (sp.op == aggMin && c < 0) || (sp.op == aggMax && c > 0) {
			a.best = *v
		}
	}
}

func (a *aggState) result(op aggOp, name string) (Value, error) {
	switch {
	case a.err != nil:
		return Null(), a.err
	case op == aggCount:
		return Int(a.n), nil
	case a.n == 0:
		return Null(), nil
	case a.bad && op >= aggMin:
		return Null(), fmt.Errorf("sqldb: %s over incomparable values", name)
	case a.bad:
		return Null(), fmt.Errorf("sqldb: %s over non-numeric value", name)
	case op == aggAvg:
		return Float(a.ff / float64(a.n)), nil
	case op == aggSum && a.floats:
		return Float(a.ff), nil
	case op == aggSum:
		return Int(a.fi), nil
	}
	return a.best, nil
}
