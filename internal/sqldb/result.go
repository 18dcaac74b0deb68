package sqldb

import (
	"fmt"
	"strings"
)

// Result is the outcome of executing one statement: an optional result set
// (for SELECT and CALL) plus the number of rows affected (for DML).
type Result struct {
	Columns      []string
	Rows         [][]Value
	RowsAffected int
}

// IsQuery reports whether the result carries a result set.
func (r *Result) IsQuery() bool { return r != nil && r.Columns != nil }

// ColumnIndex returns the position of the named column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Get returns the value at (row, named column). It returns NULL for an
// unknown column or out-of-range row.
func (r *Result) Get(row int, column string) Value {
	ci := r.ColumnIndex(column)
	if ci < 0 || row < 0 || row >= len(r.Rows) {
		return Null()
	}
	return r.Rows[row][ci]
}

// ScalarValue returns the single value of a 1x1 result set.
func (r *Result) ScalarValue() (Value, error) {
	if !r.IsQuery() || len(r.Rows) != 1 || len(r.Columns) != 1 {
		return Null(), fmt.Errorf("sqldb: result is not a single scalar (%dx%d)", len(r.Rows), len(r.Columns))
	}
	return r.Rows[0][0], nil
}

// String renders the result set as an aligned text table (for the shell
// and examples).
func (r *Result) String() string {
	if !r.IsQuery() {
		return fmt.Sprintf("(%d rows affected)", r.RowsAffected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			if i == len(vals)-1 {
				b.WriteString(s) // no trailing padding on the last column
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], s)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// approxBytes estimates the wire size of the result set; the engine's
// BytesReturned counter aggregates this, which the benchmarks use to
// quantify by-reference vs by-value data movement.
func (r *Result) approxBytes() int64 {
	if !r.IsQuery() {
		return 0
	}
	var n int64
	for _, c := range r.Columns {
		n += int64(len(c))
	}
	for _, row := range r.Rows {
		for _, v := range row {
			switch v.K {
			case KindNull, KindBool:
				n += 1
			case KindInt, KindFloat:
				n += 8
			case KindString:
				n += int64(len(v.S))
			}
		}
	}
	return n
}
