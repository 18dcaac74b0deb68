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
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of SQL values.
type Kind int

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
// The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

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
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
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
		return v.F, true
	}
	return 0, false
}

// AsInt converts numeric values to int64 (floats are truncated).
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	}
	return 0, false
}

// Truth reports the SQL three-valued-logic truth of the value: a NULL or
// non-boolean value is not true.
func (v Value) Truth() bool { return v.K == KindBool && v.B }

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
// value with a constant without copying either.
func (a *Value) compare(b *Value) (int, bool) {
	if a.K == KindNull || b.K == KindNull {
		return 0, false
	}
	// Numeric cross-kind comparison.
	if (a.K == KindInt || a.K == KindFloat) && (b.K == KindInt || b.K == KindFloat) {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S), true
	case KindBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

// sortCompare orders values for ORDER BY and ordered indexes: NULLs sort
// first, then by value; incomparable kinds order by kind.
func sortCompare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := compareValues(a, b); ok {
		return c
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
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
			return Int(int64(v.F)), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("sqldb: cannot convert %q to INTEGER", v.S)
			}
			return Int(i), nil
		case KindBool:
			if v.B {
				return Int(1), nil
			}
			return Int(0), nil
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
