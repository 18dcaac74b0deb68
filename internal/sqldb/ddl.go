package sqldb

import (
	"fmt"
	"strings"
)

// execCreateTable handles CREATE TABLE, including CREATE TABLE ... AS SELECT.
func (s *Session) execCreateTable(t *CreateTableStmt, slot *stmtSlot, base *env) (*Result, error) {
	lc := strings.ToLower(t.Table)
	if _, exists := s.db.tables[lc]; exists {
		if t.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqldb: table %s already exists", t.Table)
	}
	if _, exists := s.db.views[lc]; exists {
		return nil, fmt.Errorf("sqldb: a view named %s already exists", t.Table)
	}
	cols := make([]Column, len(t.Columns))
	for i, cd := range t.Columns {
		cols[i] = Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull, PrimaryKey: cd.PrimaryKey, Default: cd.Default}
	}
	var rows [][]Value // AS SELECT: the rows, whose columns are the table's
	if t.AsQuery != nil {
		qres, err := s.execSelect(t.AsQuery, base, slot)
		if err != nil {
			return nil, err
		}
		cols, rows = make([]Column, len(qres.Columns)), qres.Rows
		for i, name := range qres.Columns {
			cols[i] = Column{Name: name, Type: inferColumnType(rows, i)}
		}
	} else if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %s must have at least one column", t.Table)
	}
	tbl, err := newTable(t.Table, cols)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		r, err := tbl.insertVersion(row, s.txn.id)
		if err != nil {
			return nil, err
		}
		s.txn.ws = append(s.txn.ws, wsEntry{t: tbl, r: r, kind: wsInsert})
	}
	s.db.tables[lc] = tbl
	if tbl.pkIndex != nil {
		s.db.indexOwner[strings.ToLower(tbl.pkIndex.Name)] = tbl
	}
	s.db.rowsWritten.Add(int64(len(rows)))
	return &Result{RowsAffected: len(rows)}, nil
}

// execAlterTable handles ALTER TABLE ADD COLUMN / DROP COLUMN / RENAME TO.
// Like the other DDL statements, alterations are not transactional.
func (s *Session) execAlterTable(t *AlterTableStmt, base *env) (*Result, error) {
	tbl, err := s.db.table(t.Table)
	if err != nil {
		return nil, err
	}
	tbl.schemaVer++
	switch t.Kind {
	case AlterAddColumn:
		if tbl.ColumnIndex(t.Column.Name) >= 0 {
			return nil, fmt.Errorf("sqldb: column %s already exists in %s", t.Column.Name, tbl.Name)
		}
		if t.Column.PrimaryKey {
			return nil, fmt.Errorf("sqldb: cannot add a PRIMARY KEY column to an existing table")
		}
		var def Value
		if t.Column.Default != nil {
			c := newCompiler(base, nil)
			if def, err = c.compile(t.Column.Default)(base); err != nil {
				return nil, err
			}
			if def, err = coerce(def, t.Column.Type); err != nil {
				return nil, err
			}
		}
		if t.Column.NotNull && def.IsNull() && tbl.RowCount() > 0 {
			return nil, fmt.Errorf("sqldb: adding NOT NULL column %s to a non-empty table requires a DEFAULT", t.Column.Name)
		}
		tbl.Columns = append(tbl.Columns, Column{
			Name: t.Column.Name, Type: t.Column.Type,
			NotNull: t.Column.NotNull, Default: t.Column.Default,
		})
		for _, r := range tbl.rows {
			r.Values = append(r.Values, def)
		}
		return &Result{}, nil
	case AlterDropColumn:
		ci := tbl.ColumnIndex(t.Name)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: no column %s in %s", t.Name, tbl.Name)
		}
		for _, idx := range tbl.indexes {
			for _, c := range idx.Columns {
				if strings.EqualFold(c, t.Name) {
					return nil, fmt.Errorf("sqldb: column %s is used by index %s", t.Name, idx.Name)
				}
			}
		}
		tbl.Columns = append(tbl.Columns[:ci], tbl.Columns[ci+1:]...)
		for _, r := range tbl.rows {
			r.Values = append(r.Values[:ci], r.Values[ci+1:]...)
		}
		// Index column positions shift; rebuild the lookup offsets.
		for _, idx := range tbl.indexes {
			for i, c := range idx.Columns {
				idx.colIdx[i] = tbl.ColumnIndex(c)
			}
		}
		return &Result{}, nil
	case AlterRenameTable:
		newLC := strings.ToLower(t.Name)
		if _, exists := s.db.tables[newLC]; exists {
			return nil, fmt.Errorf("sqldb: table %s already exists", t.Name)
		}
		delete(s.db.tables, tbl.key)
		tbl.Name, tbl.key = t.Name, newLC
		s.db.tables[newLC] = tbl
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown ALTER TABLE form")
}

// inferColumnType picks a column type for CREATE TABLE AS SELECT from the
// first non-NULL value of the column; all-NULL columns become VARCHAR.
func inferColumnType(rows [][]Value, col int) ColumnType {
	for _, row := range rows {
		switch row[col].K {
		case KindInt:
			return TypeInteger
		case KindFloat:
			return TypeFloat
		case KindString:
			return TypeVarchar
		case KindBool:
			return TypeBoolean
		}
	}
	return TypeVarchar
}
