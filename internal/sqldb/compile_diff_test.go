package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file is the mechanical check of the closure compiler (compile.go),
// the one evaluator the engine runs, against the tree-walking interpreter
// it replaced, kept here as the slow obvious oracle (and, through slowEval,
// as the materializing executor's in slowselect_test.go): seeded random
// expression trees over random rows must produce the same value and the
// same error text from compile(x)(e) and eval(x, e), and the same truth
// from pred(x)(e). Two differences are the compiler's by design: it
// resolves names when the tree is built (a tree holding a bad reference
// fails to compile, whatever the rows), and a predicate stops at the
// first operand that decides it (it may succeed where eval, which reads
// on past a NULL, raises an error — never the reverse).

// exprGen draws random expression trees over a fixed column layout.
// Generation is loosely typed — boolean operators mostly get boolean
// operands, arithmetic mostly numbers — so most trees evaluate deep
// instead of dying at the first ill-typed leaf, while a steady trickle of
// ill-typed, unknown, ambiguous and out-of-range nodes keeps the error
// paths (and their texts) under comparison too.
type exprGen struct{ rng *rand.Rand }

// The layout: a is ambiguous unqualified (in both t and u), b, c and d
// are unique. Columns are typed (with NULLs): a integers, b strings, c
// booleans, d floats.
var (
	diffCols  = []colMeta{{"t", "a"}, {"t", "b"}, {"u", "a"}, {"u", "c"}, {"", "d"}}
	diffKinds = []Kind{KindInt, KindString, KindInt, KindBool, KindFloat}

	diffNumRefs  = []ColumnRef{{"t", "a"}, {"u", "a"}, {"T", "A"}, {"", "d"}, {"", "D"}}
	diffStrRefs  = []ColumnRef{{"", "b"}, {"t", "b"}}
	diffBoolRefs = []ColumnRef{{"", "c"}, {"u", "c"}}
	// Ambiguous, unknown column, unknown column in a known table, unknown table.
	diffBadRefs = []ColumnRef{{"", "a"}, {"", "zz"}, {"t", "zz"}, {"q", "a"}}

	diffStrings = []string{"", "a", "ab", "abc", "item001", "Item001", "%", "a%", "%b%", "_b", "a_c", "12", "1.5"}
	diffFloats  = []float64{0, 0.5, -1.5, 2, 1e9}
)

func (g *exprGen) oneIn(n int) bool { return g.rng.Intn(n) == 0 }

// value draws a value of the kind, NULL one time in six.
func (g *exprGen) value(k Kind) Value {
	if g.oneIn(6) {
		return Null()
	}
	switch k {
	case KindInt:
		return Int(int64(g.rng.Intn(7) - 3)) // includes 0 for /0 and %0
	case KindFloat:
		return Float(diffFloats[g.rng.Intn(len(diffFloats))])
	case KindString:
		return Str(diffStrings[g.rng.Intn(len(diffStrings))])
	}
	return Bool(g.oneIn(2))
}

func (g *exprGen) anyKind() Kind {
	return []Kind{KindInt, KindInt, KindFloat, KindString, KindBool}[g.rng.Intn(5)]
}

func (g *exprGen) row(kinds []Kind) []Value {
	row := make([]Value, len(kinds))
	for i, k := range kinds {
		row[i] = g.value(k)
	}
	return row
}

// leaf draws a literal, column or parameter, usually of the wanted kind.
func (g *exprGen) leaf(k Kind) Expr {
	if g.oneIn(8) {
		k = g.anyKind()
	}
	ref := func(refs []ColumnRef) Expr { r := refs[g.rng.Intn(len(refs))]; return &r }
	switch n := g.rng.Intn(60); {
	case n == 0:
		return ref(diffBadRefs)
	case n == 1:
		if g.oneIn(2) {
			return &ParamRef{Index: 5} // an unbound named slot
		}
		return &ParamRef{Index: []int{-1, 6}[g.rng.Intn(2)]} // out of range
	case n < 8:
		return &ParamRef{Index: g.rng.Intn(3)} // ?0 int, ?1 string, ?2 bool
	case n < 12:
		return &ParamRef{Index: []int{3, 3, 4}[g.rng.Intn(3)]} // named slots: :n int, :m bool
	case n < 32:
		return &Literal{Val: g.value(k)}
	}
	switch k {
	case KindString:
		return ref(diffStrRefs)
	case KindBool:
		return ref(diffBoolRefs)
	}
	return ref(diffNumRefs)
}

var (
	diffCompareOps = []string{"=", "<>", "<", "<=", ">", ">="}
	diffArithOps   = []string{"+", "-", "*", "/", "%"}
)

// expr draws an expression that usually evaluates to the wanted kind.
func (g *exprGen) expr(depth int, k Kind) Expr {
	if depth <= 0 || g.oneIn(5) {
		return g.leaf(k)
	}
	if g.oneIn(10) {
		k = g.anyKind()
	}
	sub := func(k Kind) Expr { return g.expr(depth-1, k) }
	not := g.oneIn(2)
	if g.oneIn(40) {
		// An unknown function (its error after its argument's), or
		// NEXTVAL of a non-name.
		if g.oneIn(2) {
			return &FuncCall{Name: "NOSUCHFN", Args: []Expr{sub(k)}}
		}
		return &FuncCall{Name: "NEXTVAL", Args: []Expr{&Literal{Val: g.value(KindInt)}}}
	}
	switch k {
	case KindBool:
		operand := g.anyKind()
		switch g.rng.Intn(7) {
		case 0, 1:
			return &BinaryExpr{Op: []string{"AND", "OR"}[g.rng.Intn(2)], L: sub(KindBool), R: sub(KindBool)}
		case 2:
			return &UnaryExpr{Op: "NOT", X: sub(KindBool)}
		case 3, 4:
			return &BinaryExpr{Op: diffCompareOps[g.rng.Intn(len(diffCompareOps))], L: sub(operand), R: sub(operand)}
		case 5:
			return &IsNullExpr{X: sub(operand), Not: not}
		}
		in := &InExpr{X: sub(operand), Not: not}
		for i := g.rng.Intn(4); i > 0; i-- { // an empty list is legal in the AST
			in.List = append(in.List, sub(operand))
		}
		return in
	case KindString:
		return &BinaryExpr{Op: []string{"||", "+"}[g.rng.Intn(2)], L: sub(KindString), R: sub(g.anyKind())}
	}
	switch g.rng.Intn(40) {
	case 0, 1, 2, 3, 4:
		return &UnaryExpr{Op: "-", X: sub(k)}
	case 5:
		// Operators the parser never produces: both evaluators must
		// fail the same way, operand errors first.
		if g.oneIn(2) {
			return &UnaryExpr{Op: "~", X: sub(k)}
		}
		return &BinaryExpr{Op: "^", L: sub(k), R: sub(k)}
	}
	other := []Kind{KindInt, KindInt, KindFloat}[g.rng.Intn(3)]
	return &BinaryExpr{Op: diffArithOps[g.rng.Intn(len(diffArithOps))], L: sub(k), R: sub(other)}
}

// exprText renders an expression for failure messages.
func exprText(x Expr) string {
	join := func(xs []Expr) string {
		parts := make([]string, len(xs))
		for i, a := range xs {
			parts[i] = exprText(a)
		}
		return strings.Join(parts, ", ")
	}
	not := func(b bool) string {
		if b {
			return "NOT "
		}
		return ""
	}
	switch t := x.(type) {
	case nil:
		return "<nil>"
	case *Literal:
		return fmt.Sprintf("%s:%q", t.Val.K, t.Val.String())
	case *ColumnRef:
		if t.Table != "" {
			return t.Table + "." + t.Column
		}
		return t.Column
	case *ParamRef:
		return fmt.Sprintf("?%d", t.Index)
	case *BinaryExpr:
		return "(" + exprText(t.L) + " " + t.Op + " " + exprText(t.R) + ")"
	case *UnaryExpr:
		return "(" + t.Op + " " + exprText(t.X) + ")"
	case *IsNullExpr:
		return "(" + exprText(t.X) + " IS " + not(t.Not) + "NULL)"
	case *InExpr:
		return "(" + exprText(t.X) + " " + not(t.Not) + "IN (" + join(t.List) + "))"
	case *FuncCall:
		return t.Name + "(" + join(t.Args) + ")"
	}
	return fmt.Sprintf("%T", x)
}

// walkExpr calls f on x and every expression below it.
func walkExpr(x Expr, f func(Expr)) {
	if x == nil {
		return
	}
	f(x)
	switch t := x.(type) {
	case *BinaryExpr:
		walkExpr(t.L, f)
		walkExpr(t.R, f)
	case *UnaryExpr:
		walkExpr(t.X, f)
	case *IsNullExpr:
		walkExpr(t.X, f)
	case *InExpr:
		walkExpr(t.X, f)
		for _, a := range t.List {
			walkExpr(a, f)
		}
	case *FuncCall:
		for _, a := range t.Args {
			walkExpr(a, f)
		}
	}
}

// hasBadRef reports a reference from diffBadRefs anywhere in x.
func hasBadRef(x Expr) bool {
	bad := false
	walkExpr(x, func(n Expr) {
		if cr, ok := n.(*ColumnRef); ok {
			for _, b := range diffBadRefs {
				bad = bad || *cr == b
			}
		}
	})
	return bad
}

// sameValue is bit identity: a float's bits are its I.
func sameValue(a, b Value) bool {
	return a == b
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestCompiledAndInterpretedExpressionsAgree(t *testing.T) {
	const (
		seeds        = 8
		exprsPerSeed = 1500
		rowsPerExpr  = 6
	)
	var errs, nulls, total, unresolved int
	for seed := int64(1); seed <= seeds; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < exprsPerSeed; i++ {
			x := g.expr(4, g.anyKind())
			params := g.row([]Kind{KindInt, KindString, KindBool})
			params = append(params, g.value(KindInt), g.value(KindBool)) // named slots :n, :m
			// One compiled tree serves one statement execution: many rows,
			// one column layout, one set of parameters.
			scope := &env{cols: diffCols, params: params}
			c, pc := newCompiler(scope, nil), newCompiler(scope, nil)
			fn, pred := c.compile(x), pc.pred(x)
			if bad := hasBadRef(x); bad != (c.err != nil) || bad != (pc.err != nil) {
				t.Fatalf("seed %d expr %d: %s: bad reference %v, compile error %v, pred error %v",
					seed, i, exprText(x), bad, c.err, pc.err)
			} else if bad {
				unresolved++
				continue
			}
			for r := 0; r < rowsPerExpr; r++ {
				e := &env{cols: diffCols, row: g.row(diffKinds), params: params}
				if r == rowsPerExpr-1 {
					e.row = nil // same layout, no current row
				}
				want, wantErr := eval(x, e)
				got, gotErr := fn(e)
				if errText(gotErr) != errText(wantErr) || (wantErr == nil && !sameValue(got, want)) {
					t.Fatalf("seed %d expr %d row %d: evaluators disagree on %s\n"+
						"  row      %v\n  params   %v\n"+
						"  eval     -> %s:%q, err %s\n  compiled -> %s:%q, err %s",
						seed, i, r, exprText(x), e.row, params,
						want.K, want.String(), errText(wantErr), got.K, got.String(), errText(gotErr))
				}
				if truth, err := pred(e); err != nil && wantErr == nil || err == nil && wantErr == nil && truth != want.Truth() {
					t.Fatalf("seed %d expr %d row %d: predicate disagrees on %s\n  row %v params %v\n"+
						"  eval -> %s:%q, err %s\n  pred -> %v, err %s",
						seed, i, r, exprText(x), e.row, params,
						want.K, want.String(), errText(wantErr), truth, errText(err))
				}
				total++
				switch {
				case wantErr != nil:
					errs++
				case want.IsNull():
					nulls++
				}
			}
		}
	}
	// The generator must keep exercising all three outcome classes, or the
	// agreement above says less than it seems to.
	if ok := total - errs - nulls; errs < total/10 || nulls < total/10 || ok < total/5 || unresolved == 0 {
		t.Fatalf("degenerate generator: %d evaluations, %d errors, %d NULLs, %d values, %d unresolved trees", total, errs, nulls, ok, unresolved)
	}
}

// --- the interpreter ---

// eval evaluates an expression in the given environment by walking the
// tree; names resolve as they are met. It applies the engine's
// value-level operators (expr.go), as the compiled closures do.
func eval(x Expr, e *env) (Value, error) {
	switch t := x.(type) {
	case *Literal:
		return t.Val, nil
	case *ColumnRef:
		idx, err := resolveColumn(e.cols, t.Table, t.Column)
		if err != nil {
			return Null(), err
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
	case *InExpr:
		return evalIn(t, e)
	case *FuncCall:
		if slices.Contains(aggregateNames, t.Name) {
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
	}
	return Null(), fmt.Errorf("sqldb: cannot evaluate %T", x)
}

func evalIn(t *InExpr, e *env) (Value, error) {
	v, err := eval(t.X, e)
	if err != nil {
		return Null(), err
	}
	var candidates []Value
	for _, le := range t.List {
		lv, err := eval(le, e)
		if err != nil {
			return Null(), err
		}
		candidates = append(candidates, lv)
	}
	return inMatch(v, candidates, t.Not), nil
}

// evalNonNegInt evaluates an OFFSET or LIMIT count with the interpreter.
func evalNonNegInt(x Expr, outer *env, what string) (int, error) {
	return count(func(e *env) (Value, error) { return eval(x, e) }, outer, what, 0)
}
