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
