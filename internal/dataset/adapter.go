package dataset

import (
	"fmt"
	"strings"

	"wfsql/internal/sqldb"
)

// DataAdapter moves data between a sqldb database and a DataSet cache,
// mirroring ADO.NET's DbDataAdapter: Fill materializes a query result into
// the cache (Set Retrieval Pattern); Update pushes accumulated row changes
// back by generating INSERT/UPDATE/DELETE statements (Synchronization
// Pattern).
type DataAdapter struct {
	DB         *sqldb.DB
	SelectSQL  string   // query used by Fill
	Table      string   // source table targeted by Update
	KeyColumns []string // key columns for UPDATE/DELETE predicates

	// Run, when set, runs one unit of the adapter's work — Fill's query,
	// Update's whole transaction — on the caller's session: a workflow
	// instance's (mswf.NewDataAdapter), under its budget. A unit Run
	// re-runs, it re-runs whole. Without Run, each unit runs on a fresh
	// session of DB.
	Run func(op func(*sqldb.Session) error) error
}

// run runs op through Run, or on a fresh session of DB.
func (a *DataAdapter) run(op func(*sqldb.Session) error) error {
	if a.Run != nil {
		return a.Run(op)
	}
	if a.DB == nil {
		return fmt.Errorf("dataset: adapter has no database")
	}
	return op(a.DB.Session())
}

// Fill executes SelectSQL and loads the result into the named DataSet
// table (created if absent). It returns the number of rows loaded.
func (a *DataAdapter) Fill(ds *DataSet, tableName string, params ...sqldb.Value) (int, error) {
	var res *sqldb.Result
	if err := a.run(func(s *sqldb.Session) (err error) {
		res, err = s.Query(a.SelectSQL, params...)
		return err
	}); err != nil {
		return 0, fmt.Errorf("dataset: fill: %w", err)
	}
	t := ds.Table(tableName)
	if t == nil {
		t = NewDataTable(tableName, res.Columns...)
		t.PrimaryKey = append([]string(nil), a.KeyColumns...)
		ds.AddTable(t)
	}
	for _, row := range res.Rows {
		t.loadRow(row)
	}
	return len(res.Rows), nil
}

// Update synchronizes the named table's pending changes back to the
// source table, then accepts the changes. It returns the number of rows
// written. Statement generation follows ADO.NET's command builders:
// deleted and modified rows are located by the adapter's key columns.
func (a *DataAdapter) Update(ds *DataSet, tableName string) (int, error) {
	if a.Table == "" {
		return 0, fmt.Errorf("dataset: adapter has no target table for update generation")
	}
	t := ds.Table(tableName)
	if t == nil {
		return 0, fmt.Errorf("dataset: no table %s in DataSet", tableName)
	}
	added, modified, deleted := t.Changes()
	if len(added)+len(modified)+len(deleted) == 0 {
		return 0, nil
	}
	keyIdx, err := a.keyIndexes(t)
	if err != nil {
		return 0, err
	}

	var n int
	if err := a.run(func(s *sqldb.Session) error {
		if _, err := s.Exec("BEGIN"); err != nil {
			return err
		}
		var err error
		if n, err = a.applyChanges(s, t, added, modified, deleted, keyIdx); err != nil {
			s.Rollback()
			return fmt.Errorf("dataset: update: %w", err)
		}
		if _, err = s.Exec("COMMIT"); err != nil {
			s.Rollback() // the session may be an instance's: leave no transaction open on it
		}
		return err
	}); err != nil {
		return 0, err
	}
	t.AcceptChanges()
	return n, nil
}

func (a *DataAdapter) keyIndexes(t *DataTable) ([]int, error) {
	keys := a.KeyColumns
	if len(keys) == 0 {
		keys = t.PrimaryKey
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("dataset: no key columns configured for synchronization")
	}
	idx := make([]int, len(keys))
	for i, k := range keys {
		ci := t.columnIndex(k)
		if ci < 0 {
			return nil, fmt.Errorf("dataset: key column %s not in cached table %s", k, t.Name)
		}
		idx[i] = ci
	}
	return idx, nil
}

func (a *DataAdapter) applyChanges(s *sqldb.Session, t *DataTable, added, modified, deleted []*DataRow, keyIdx []int) (int, error) {
	keys := a.KeyColumns
	if len(keys) == 0 {
		keys = t.PrimaryKey
	}
	n := 0
	// Deletes first (frees key space), then updates, then inserts.
	for _, r := range deleted {
		where, params := keyPredicate(keys, keyIdx, r.original)
		sql := fmt.Sprintf("DELETE FROM %s WHERE %s", a.Table, where)
		res, err := s.Exec(sql, params...)
		if err != nil {
			return n, err
		}
		if res.RowsAffected == 0 {
			return n, fmt.Errorf("concurrency violation: DELETE affected 0 rows (key changed at source)")
		}
		n += res.RowsAffected
	}
	for _, r := range modified {
		var sets []string
		var params []sqldb.Value
		for ci, col := range t.Columns {
			sets = append(sets, fmt.Sprintf("%s = ?", col))
			params = append(params, r.current[ci])
		}
		where, wparams := keyPredicate(keys, keyIdx, r.original)
		sql := fmt.Sprintf("UPDATE %s SET %s WHERE %s", a.Table, strings.Join(sets, ", "), where)
		res, err := s.Exec(sql, append(params, wparams...)...)
		if err != nil {
			return n, err
		}
		if res.RowsAffected == 0 {
			return n, fmt.Errorf("concurrency violation: UPDATE affected 0 rows (key changed at source)")
		}
		n += res.RowsAffected
	}
	for _, r := range added {
		placeholders := strings.TrimRight(strings.Repeat("?, ", len(t.Columns)), ", ")
		sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", a.Table, strings.Join(t.Columns, ", "), placeholders)
		res, err := s.Exec(sql, r.current...)
		if err != nil {
			return n, err
		}
		n += res.RowsAffected
	}
	return n, nil
}

// keyPredicate builds "k1 = ? AND k2 = ?" plus parameter values taken from
// the row's original values (pre-modification key).
func keyPredicate(keys []string, keyIdx []int, original []sqldb.Value) (string, []sqldb.Value) {
	var parts []string
	var params []sqldb.Value
	for i, k := range keys {
		parts = append(parts, fmt.Sprintf("%s = ?", k))
		params = append(params, original[keyIdx[i]])
	}
	return strings.Join(parts, " AND "), params
}
