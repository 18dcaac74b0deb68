// Package dataset reimplements the ADO.NET client-side data model the
// paper's Microsoft Workflow Foundation discussion depends on: a DataSet
// is a cache for relational data on the client side that holds no
// connection to the original data, with per-row change tracking
// (Unchanged / Added / Modified / Deleted) and a DataAdapter that fills
// the cache from a query and synchronizes accumulated changes back to the
// source by generating INSERT, UPDATE, and DELETE statements.
//
// In the paper's taxonomy, Fill realizes the Set Retrieval Pattern;
// row access realizes Sequential and Random Set Access; the row mutators
// realize the Tuple IUD Pattern; and Update realizes the Synchronization
// Pattern.
package dataset

import (
	"fmt"
	"strings"

	"wfsql/internal/sqldb"
)

// RowState tracks the change state of a DataRow.
type RowState uint8

// Row states, mirroring ADO.NET's DataRowState.
const (
	Unchanged RowState = iota
	Added
	Modified
	Deleted
)

// String returns the state name.
func (s RowState) String() string {
	switch s {
	case Unchanged:
		return "Unchanged"
	case Added:
		return "Added"
	case Modified:
		return "Modified"
	case Deleted:
		return "Deleted"
	}
	return "Unknown"
}

// DataRow is one cached tuple with change tracking.
type DataRow struct {
	table    *DataTable
	current  []sqldb.Value
	original []sqldb.Value // nil until first modification
	state    RowState
	detached bool // no longer one of its table's rows
}

// State returns the row's change state.
func (r *DataRow) State() RowState { return r.state }

// Get returns the value of the named column.
func (r *DataRow) Get(column string) (sqldb.Value, error) {
	ci := r.table.ColumnIndex(column)
	if ci < 0 {
		return sqldb.Null(), fmt.Errorf("dataset: no column %s in table %s", column, r.table.Name)
	}
	return r.current[ci], nil
}

// MustGet returns the value of the named column, panicking on unknown
// columns (mirrors ADO.NET's indexer exception).
func (r *DataRow) MustGet(column string) sqldb.Value {
	v, err := r.Get(column)
	if err != nil {
		panic(err)
	}
	return v
}

// Set updates the named column, transitioning Unchanged rows to Modified.
func (r *DataRow) Set(column string, v sqldb.Value) error {
	if r.state == Deleted {
		return fmt.Errorf("dataset: cannot modify a deleted row")
	}
	ci := r.table.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("dataset: no column %s in table %s", column, r.table.Name)
	}
	if r.state == Unchanged {
		r.original = append([]sqldb.Value(nil), r.current...)
		r.state = Modified
	}
	r.current[ci] = v
	return nil
}

// Delete marks the row deleted. Added rows are removed outright (they
// never existed at the source).
func (r *DataRow) Delete() {
	switch r.state {
	case Added:
		r.table.removeRow(r)
		return
	case Deleted:
		return
	case Unchanged:
		r.original = append([]sqldb.Value(nil), r.current...)
	}
	r.state = Deleted
	if !r.detached {
		r.table.deleted++
	}
}

// AcceptRow commits this row's pending state (the per-row counterpart of
// DataTable.AcceptChanges): a Deleted row is removed from its table,
// Added and Modified rows become Unchanged.
func (r *DataRow) AcceptRow() {
	if r.state == Deleted {
		r.table.removeRow(r)
		return
	}
	r.state = Unchanged
	r.original = nil
}

// DataTable is one cached table of a DataSet.
type DataTable struct {
	Name       string
	Columns    []string
	PrimaryKey []string
	rows       []*DataRow // includes Deleted rows until AcceptChanges
	deleted    int        // how many of rows are Deleted: the live rows are the others
}

// NewDataTable creates an empty table with the given columns.
func NewDataTable(name string, columns ...string) *DataTable {
	return &DataTable{Name: name, Columns: columns}
}

// ColumnIndex returns the position of the named column, or -1.
func (t *DataTable) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// AddRow appends a new row in state Added.
func (t *DataTable) AddRow(values ...sqldb.Value) (*DataRow, error) {
	if len(values) != len(t.Columns) {
		return nil, fmt.Errorf("dataset: table %s expects %d values, got %d", t.Name, len(t.Columns), len(values))
	}
	r := &DataRow{table: t, current: append([]sqldb.Value(nil), values...), state: Added}
	t.rows = append(t.rows, r)
	return r, nil
}

// loadRow appends a row in state Unchanged (used by Fill).
func (t *DataTable) loadRow(values []sqldb.Value) *DataRow {
	r := &DataRow{table: t, current: append([]sqldb.Value(nil), values...), state: Unchanged}
	t.rows = append(t.rows, r)
	return r
}

func (t *DataTable) removeRow(r *DataRow) {
	if r.detached {
		return
	}
	for i, rr := range t.rows {
		if rr == r {
			t.rows = append(t.rows[:i], t.rows[i+1:]...)
			break
		}
	}
	if r.state == Deleted {
		t.deleted--
	}
	r.detached = true
}

// Rows returns the live (non-deleted) rows in order — the sequential
// access surface the WF while activity iterates over.
func (t *DataTable) Rows() []*DataRow {
	return t.Select(func(*DataRow) bool { return true })
}

// EachRow calls f on every tracked row, Deleted ones included, in order:
// its state and its current values — the row's own, to read and not keep.
func (t *DataTable) EachRow(f func(state RowState, vals []sqldb.Value)) {
	for _, r := range t.rows {
		f(r.state, r.current)
	}
}

// Count returns the number of live rows.
func (t *DataTable) Count() int { return len(t.rows) - t.deleted }

// Row returns the i-th live row (random access), or an error. With no
// row deleted it is the i-th tracked row; otherwise the live rows are
// counted off in place.
func (t *DataTable) Row(i int) (*DataRow, error) {
	if n := t.Count(); i < 0 || i >= n {
		return nil, fmt.Errorf("dataset: row %d out of range (0..%d)", i, n-1)
	}
	if t.deleted > 0 {
		for _, r := range t.rows {
			if r.state == Deleted {
				continue
			}
			if i == 0 {
				return r, nil
			}
			i--
		}
	}
	return t.rows[i], nil
}

// Select returns live rows matching the predicate (ADO.NET's
// DataTable.Select with a Go predicate instead of a filter string).
func (t *DataTable) Select(pred func(*DataRow) bool) []*DataRow {
	var out []*DataRow
	for _, r := range t.rows {
		if r.state != Deleted && pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Find locates a live row by primary key values.
func (t *DataTable) Find(keys ...sqldb.Value) (*DataRow, error) {
	if len(t.PrimaryKey) == 0 {
		return nil, fmt.Errorf("dataset: table %s has no primary key", t.Name)
	}
	if len(keys) != len(t.PrimaryKey) {
		return nil, fmt.Errorf("dataset: table %s has %d key column(s), got %d values", t.Name, len(t.PrimaryKey), len(keys))
	}
	idx := make([]int, len(t.PrimaryKey))
	for i, k := range t.PrimaryKey {
		ci := t.ColumnIndex(k)
		if ci < 0 {
			return nil, fmt.Errorf("dataset: key column %s missing", k)
		}
		idx[i] = ci
	}
	for _, r := range t.rows {
		if r.state == Deleted {
			continue
		}
		match := true
		for i, ci := range idx {
			if !r.current[ci].Equal(keys[i]) {
				match = false
				break
			}
		}
		if match {
			return r, nil
		}
	}
	return nil, nil
}

// Changes returns the rows in each changed state.
func (t *DataTable) Changes() (added, modified, deleted []*DataRow) {
	for _, r := range t.rows {
		switch r.state {
		case Added:
			added = append(added, r)
		case Modified:
			modified = append(modified, r)
		case Deleted:
			deleted = append(deleted, r)
		}
	}
	return
}

// HasChanges reports whether any row is in a changed state.
func (t *DataTable) HasChanges() bool {
	a, m, d := t.Changes()
	return len(a)+len(m)+len(d) > 0
}

// AcceptChanges commits all pending states: deleted rows vanish, added and
// modified rows become Unchanged.
func (t *DataTable) AcceptChanges() {
	kept := t.rows[:0]
	for _, r := range t.rows {
		if r.state == Deleted {
			r.detached = true
			continue
		}
		r.state = Unchanged
		r.original = nil
		kept = append(kept, r)
	}
	t.keep(kept)
}

// RejectChanges rolls the cache back to the last accepted state.
func (t *DataTable) RejectChanges() {
	kept := t.rows[:0]
	for _, r := range t.rows {
		switch r.state {
		case Added:
			r.detached = true // never existed
			continue
		case Modified, Deleted:
			r.current = r.original
			r.original = nil
			r.state = Unchanged
		}
		kept = append(kept, r)
	}
	t.keep(kept)
}

// keep makes kept, filtered in place from rows, the table's rows: none
// of them Deleted.
func (t *DataTable) keep(kept []*DataRow) {
	clear(t.rows[len(kept):])
	t.rows, t.deleted = kept, 0
}

// DataSet is a named collection of cached tables.
type DataSet struct {
	tables map[string]*DataTable
	order  []string
}

// New creates an empty DataSet.
func New() *DataSet { return &DataSet{tables: map[string]*DataTable{}} }

// Table returns the named table, or nil.
func (ds *DataSet) Table(name string) *DataTable {
	t, _ := sqldb.LookupFold(ds.tables, name)
	return t
}

// AddTable installs a table (replacing any same-named one).
func (ds *DataSet) AddTable(t *DataTable) {
	key := strings.ToLower(t.Name)
	if _, exists := ds.tables[key]; !exists {
		ds.order = append(ds.order, key)
	}
	ds.tables[key] = t
}

// EachTable calls f on every table, in the order they were added.
func (ds *DataSet) EachTable(f func(*DataTable)) {
	for _, k := range ds.order {
		f(ds.tables[k])
	}
}

// String renders the DataSet compactly: each table with its rows and
// change states.
func (ds *DataSet) String() string {
	var b strings.Builder
	ds.EachTable(func(t *DataTable) {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		b.WriteString(t.String())
	})
	return b.String()
}

// String renders the table as name[rows...] with change states on
// non-unchanged rows.
func (t *DataTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s){", t.Name, strings.Join(t.Columns, ","))
	for i, r := range t.rows {
		if i > 0 {
			b.WriteString(" ")
		}
		vals := make([]string, len(r.current))
		for j, v := range r.current {
			vals[j] = v.String()
		}
		b.WriteString(strings.Join(vals, ","))
		if r.state != Unchanged {
			fmt.Fprintf(&b, "[%s]", r.state)
		}
	}
	b.WriteString("}")
	return b.String()
}
