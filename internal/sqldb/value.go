// Package sqldb implements an embeddable relational database engine with a
// SQL front end. It is the data-management substrate for the workflow
// product reproductions in this repository: every "external data" pattern
// from the paper (Query, Set IUD, Data Setup, Stored Procedure) executes
// real SQL against this engine.
//
// The engine is in-memory and transactional. It supports a SQL subset that
// covers everything the surveyed products' SQL-inline mechanisms need:
// SELECT with joins, grouping, aggregation, ordering, subqueries; INSERT,
// UPDATE, DELETE; CREATE/DROP TABLE, INDEX, SEQUENCE, PROCEDURE; CALL;
// and explicit transactions.
package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of SQL values.
type Kind uint8

// Value kinds. KindNull is the zero value, so the zero Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a SQL runtime value: NULL, integer, float, string, or boolean.
// The zero Value is NULL. One word holds every non-string payload: I is
// the integer of a KindInt, the math.Float64bits of a KindFloat (read it
// with F) and 0 or 1 for a KindBool (read it with B), so a Value is 32
// bytes. I means nothing without a check of K.
type Value struct {
	S string
	I int64
	K Kind
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(f))} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// F returns a KindFloat's number.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// B returns a KindBool's truth.
func (v Value) B() bool { return v.I != 0 }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// String renders the value in SQL literal style (strings unquoted).
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal, quoting strings.
func (v Value) SQLLiteral() string {
	if v.K == KindString {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F(), true
	}
	return 0, false
}

// AsInt converts numeric values to int64 (floats are truncated).
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F()), true
	}
	return 0, false
}

// Truth reports the SQL three-valued-logic truth of the value: a NULL or
// non-boolean value is not true.
func (v Value) Truth() bool { return v.K == KindBool && v.B() }

// Equal reports SQL equality between two non-NULL values; comparing NULL
// with anything yields false (unknown).
func (v Value) Equal(o Value) bool {
	c, ok := compareValues(v, o)
	return ok && c == 0
}

// compareValues compares two values, returning -1, 0, or 1 and whether the
// comparison is defined (false if either side is NULL or the kinds are
// incomparable).
func compareValues(a, b Value) (int, bool) { return a.compare(&b) }

// compare is compareValues on values in place: row loops compare a stored
// value with a constant without copying either. Two integers or two
// booleans (0 < 1 in I) compare by I; any other pair of numbers as
// floats, where NaN is neither below nor above anything.
func (a *Value) compare(b *Value) (int, bool) {
	switch {
	case a.K == KindNull || b.K == KindNull:
		return 0, false
	case a.K == b.K && (a.K == KindInt || a.K == KindBool):
		return cmp.Compare(a.I, b.I), true
	case a.K == KindString && b.K == KindString:
		return strings.Compare(a.S, b.S), true
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	switch {
	case !aok || !bok:
		return 0, false
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	}
	return 0, true
}

// sortCompare orders values for ORDER BY and ordered indexes: NULLs sort
// first (KindNull is the least kind), then by value; incomparable kinds
// order by kind.
func sortCompare(a, b Value) int {
	if c, ok := compareValues(a, b); ok {
		return c
	}
	return cmp.Compare(a.K, b.K)
}

// ColumnType is a declared SQL column type.
type ColumnType int

// Declared column types supported by CREATE TABLE.
const (
	TypeInteger ColumnType = iota
	TypeFloat
	TypeVarchar
	TypeBoolean
)

// String returns the SQL name of the column type.
func (t ColumnType) String() string {
	switch t {
	case TypeInteger:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeVarchar:
		return "VARCHAR"
	case TypeBoolean:
		return "BOOLEAN"
	}
	return fmt.Sprintf("ColumnType(%d)", int(t))
}

// coerce adapts a value to a declared column type where a lossless or
// conventional SQL conversion exists; it returns an error otherwise.
func coerce(v Value, t ColumnType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case TypeInteger:
		switch v.K {
		case KindInt:
			return v, nil
		case KindFloat:
			return Int(int64(v.F())), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqldb: cannot convert %q to INTEGER", v.S)
			}
			return Int(i), nil
		case KindBool:
			return Int(v.I), nil
		}
	case TypeFloat:
		switch v.K {
		case KindInt:
			return Float(float64(v.I)), nil
		case KindFloat:
			return v, nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqldb: cannot convert %q to FLOAT", v.S)
			}
			return Float(f), nil
		}
	case TypeVarchar:
		switch v.K {
		case KindString:
			return v, nil
		default:
			return Str(v.String()), nil
		}
	case TypeBoolean:
		switch v.K {
		case KindBool:
			return v, nil
		case KindInt:
			return Bool(v.I != 0), nil
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.S)) {
			case "TRUE", "T", "1", "YES":
				return Bool(true), nil
			case "FALSE", "F", "0", "NO":
				return Bool(false), nil
			}
			return Value{}, fmt.Errorf("sqldb: cannot convert %q to BOOLEAN", v.S)
		}
	}
	return Value{}, fmt.Errorf("sqldb: cannot convert %s to %s", v.K, t)
}
