package sqldb

import "fmt"

// colMeta identifies an output or intermediate column: the (aliased) table
// qualifier it came from and its name.
type colMeta struct {
	table string // qualifier (alias or table name), lowercased; "" if none
	name  string // column name, original case
}

// env is what a compiled expression runs in, and its cols the scope it
// resolves names against: the current row (if any), the group's aggregate
// slots (while a grouped SELECT projects) and the statement's parameters.
type env struct {
	cols    []colMeta
	row     []Value
	aggs    []aggState // the group being projected; nil outside one
	params  []Value
	session *Session
}

// aggregateNames are function names treated as aggregates, in aggOp
// order.
var aggregateNames = []string{"COUNT", "SUM"}

// Value-level operators, applied by the compiled closures.

// decides reports that AND / OR need not evaluate their right operand:
// a FALSE left decides an AND, a TRUE left an OR (and is the result).
func decides(op string, l Value) bool {
	return l.K == KindBool && (op == "AND" && !l.B() || op == "OR" && l.B())
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
	case "+":
		return add(l, r)
	}
	return Null(), fmt.Errorf("sqldb: unknown operator %s", op)
}

// applyUnary applies unary minus, the sign of a negative literal.
func applyUnary(op string, v Value) (Value, error) {
	switch {
	case op != "-":
		return Null(), fmt.Errorf("sqldb: unknown unary operator %s", op)
	case v.IsNull():
		return Null(), nil
	case v.K == KindInt:
		return Int(-v.I), nil
	case v.K == KindFloat:
		return Float(-v.F()), nil
	}
	return Null(), fmt.Errorf("sqldb: cannot negate %s", v.K)
}

// add is +: a sum of numbers, or the concatenation of a string with
// anything.
func add(l, r Value) (Value, error) {
	switch {
	case l.IsNull() || r.IsNull():
		return Null(), nil
	case l.K == KindString || r.K == KindString:
		return Str(l.String() + r.String()), nil
	case l.K == KindInt && r.K == KindInt:
		return Int(l.I + r.I), nil
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return Null(), fmt.Errorf("sqldb: arithmetic on non-numeric values (%s + %s)", l.K, r.K)
	}
	return Float(lf + rf), nil
}

// errAggregateContext is what an aggregate raises when it is evaluated
// per row (WHERE, a join condition, another aggregate's argument, or any
// statement that is not a grouped SELECT).
func errAggregateContext(name string) error {
	return fmt.Errorf("sqldb: aggregate %s used outside GROUP BY/aggregate context", name)
}

// scalarFuncs is the scalar-function library: NEXTVAL(name), the next
// value of a sequence (Oracle's ora:sequence-next-val).
var scalarFuncs = map[string]func(args []Value, s *Session) (Value, error){
	"NEXTVAL": func(args []Value, s *Session) (Value, error) {
		if len(args) != 1 || args[0].K != KindString {
			return Null(), fmt.Errorf("sqldb: NEXTVAL expects one sequence name string")
		}
		return s.nextSequenceValue(args[0].S)
	},
}

// callScalarFunc applies a scalar function to its evaluated arguments.
func callScalarFunc(name string, args []Value, s *Session) (Value, error) {
	if f, ok := scalarFuncs[name]; ok {
		return f(args, s)
	}
	return Null(), fmt.Errorf("sqldb: unknown function %s", name)
}
