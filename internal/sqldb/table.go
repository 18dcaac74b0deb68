package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       ColumnType
	NotNull    bool
	PrimaryKey bool
}

// Row is one stored version of a tuple. Row identity (the pointer) is
// stable for the life of the version, which indexes and transaction
// write sets rely on. Values is immutable after insert: an UPDATE claims
// the old version and inserts a new one.
// xmin/xmax carry the MVCC stamps documented in mvcc.go.
type Row struct {
	Values []Value

	xmin atomic.Int64
	xmax atomic.Int64
}

// Table is an in-memory heap of row versions plus its schema and
// secondary indexes.
//
// Concurrency: `latch` is the per-table statement latch — mutating
// statements hold it exclusively for their whole execution, readers of
// a mutating statement's footprint hold it shared, and snapshot SELECTs
// do not take it at all. `rowsMu` is a short-hold structural lock
// guarding the rows slice header and the index buckets so those
// latch-free readers can copy them safely; writers hold it only for the
// append/vacuum itself. Schema fields (Name, Columns, indexes) change
// only under the exclusive engine lock.
type Table struct {
	Name    string
	key     string // Name lowercased: the table's key in DB.tables
	Columns []Column
	rows    []*Row
	indexes map[string]*Index // by lowercased index name
	pkIndex *Index            // non-nil if the table has a primary key

	// schemaVer counts the changes a slotted plan that resolved the table
	// must not outlive: CREATE INDEX, DROP TABLE. Under
	// the exclusive engine lock, like the fields it versions.
	schemaVer int64

	latch  sync.RWMutex
	rowsMu sync.RWMutex
	live   atomic.Int64 // versions visible to at least their creator
	dead   atomic.Int64 // aborted or committed-deleted versions awaiting vacuum

	vacuumFloor int64 // dead the last vacuum left to an older snapshot; under the exclusive latch
}

func newTable(name string, cols []Column) (*Table, error) {
	seen := map[string]bool{}
	var pkCols []string
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("sqldb: duplicate column %s in table %s", c.Name, name)
		}
		if seen[lc] = true; c.PrimaryKey {
			pkCols = append(pkCols, c.Name)
		}
	}
	t := &Table{Name: name, key: strings.ToLower(name), Columns: cols, indexes: map[string]*Index{}}
	if len(pkCols) > 0 {
		idx, err := newIndex(t.Name+"_pk", t, pkCols, true)
		if err != nil {
			return nil, err
		}
		t.pkIndex = idx
		t.indexes[strings.ToLower(idx.Name)] = idx
	}
	return t, nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// RowCount returns the number of live rows: committed versions not yet
// committed-deleted, plus the creators' own uncommitted inserts. It is
// a heap statistic (planner labels, EXPLAIN), not a snapshot count.
func (t *Table) RowCount() int { return int(t.live.Load()) }

// snapshotRows returns the heap to scan: a copy of the slice header
// taken under the structural lock. Concurrent inserts append past the
// copied length and vacuum replaces the slice wholesale, so the copy is
// stable; callers filter versions through visibleAt.
func (t *Table) snapshotRows() []*Row {
	t.rowsMu.RLock()
	rows := t.rows
	t.rowsMu.RUnlock()
	return rows
}

// insertVersion validates constraints and appends a new version stamped
// as created by txnID (uncommitted). The caller holds the table's
// exclusive latch; the structural lock is taken only around the
// append so latch-free readers stay safe.
func (t *Table) insertVersion(vals []Value, txnID int64) (*Row, error) {
	if len(vals) != len(t.Columns) {
		return nil, fmt.Errorf("sqldb: table %s expects %d values, got %d", t.Name, len(t.Columns), len(vals))
	}
	r := &Row{Values: make([]Value, len(vals))}
	for i, c := range t.Columns {
		v, err := coerce(vals[i], c.Type)
		if err != nil {
			return nil, fmt.Errorf("sqldb: column %s.%s: %w", t.Name, c.Name, err)
		}
		if c.NotNull && v.IsNull() {
			return nil, fmt.Errorf("sqldb: column %s.%s may not be NULL", t.Name, c.Name)
		}
		r.Values[i] = v
	}
	r.xmin.Store(-txnID)
	t.rowsMu.Lock()
	for _, idx := range t.indexes {
		if err := idx.checkInsert(r, txnID); err != nil {
			t.rowsMu.Unlock()
			return nil, err
		}
	}
	t.rows = append(t.rows, r)
	for _, idx := range t.indexes {
		idx.insert(r)
	}
	t.rowsMu.Unlock()
	t.live.Add(1)
	return r, nil
}

// claimRow marks the version as deleted (or superseded) by txnID — the
// row-level write lock. The caller holds the table's exclusive latch
// and only ever claims versions visible to its snapshot, so any
// existing death stamp means another transaction got there first:
// first writer wins.
func (t *Table) claimRow(r *Row, txnID int64) error {
	switch x := r.xmax.Load(); {
	case x == 0:
		r.xmax.Store(-txnID)
		return nil
	case x == -txnID:
		return nil // already claimed by this transaction
	default:
		// Claimed by another open transaction, or deleted by one that
		// committed after this statement's snapshot.
		return &writeConflictError{table: t.Name}
	}
}

// unclaimRow releases a claim this transaction just took, used when the
// second half of an UPDATE (the replacement insert) fails and the
// statement must not leave a dangling pending delete.
func (t *Table) unclaimRow(r *Row, txnID int64) {
	if r.xmax.Load() == -txnID {
		r.xmax.Store(0)
	}
}

// vacuumDeadThreshold is how many dead versions a table accumulates
// before a mutating statement vacuums it in passing.
const vacuumDeadThreshold = 64

// vacuumDue reports whether a threshold's worth of versions has died
// since the last vacuum; counting from what that one had to leave
// behind keeps a table whose dead an older snapshot pins from being
// re-scanned on every statement. The caller holds the exclusive latch.
func (t *Table) vacuumDue() bool {
	return t.dead.Load() >= t.vacuumFloor+vacuumDeadThreshold
}

// maybeVacuum drops versions no present or future snapshot can see:
// aborted inserts and deletes committed at or before the oldest active
// snapshot. The caller holds the table's exclusive latch, so stamps on
// its versions do not change underneath. The heap is copied without
// them — latch-free readers keep scanning the slice they hold — and
// each index filters them out of the buckets they sat in: keys are
// encoded for the reclaimed versions only, never for the survivors.
// pinned says a snapshot older than the caller's own set minSnap; if
// not, what is left is free once the caller returns: no reason to wait.
func (t *Table) maybeVacuum(minSnap int64, pinned bool) {
	if !t.vacuumDue() {
		return
	}
	gone := func(r *Row) bool {
		x := r.xmax.Load()
		return r.xmin.Load() == abortedStamp || (x > 0 && x <= minSnap)
	}
	t.rowsMu.Lock()
	fresh := make([]*Row, 0, len(t.rows))
	var reclaimed []*Row
	for _, r := range t.rows {
		if gone(r) {
			reclaimed = append(reclaimed, r)
		} else {
			fresh = append(fresh, r)
		}
	}
	if len(reclaimed) > 0 {
		t.rows = fresh
		for _, idx := range t.indexes {
			idx.remove(reclaimed, gone)
		}
	}
	t.rowsMu.Unlock()
	t.vacuumFloor = 0
	if left := t.dead.Add(int64(-len(reclaimed))); pinned {
		t.vacuumFloor = left
	}
}
