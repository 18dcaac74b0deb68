package sqldb

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Typed constructors for the fixed-shape statements an engine generates
// around a result table, whose only variable is a table name. Each builds
// the AST node and renders its text from the same arguments, so nothing
// is lexed and the change stream cannot carry a text that disagrees with
// what ran (TestConstructorsMatchParse: Parse(text) is DeepEqual to the
// node). They go through execStmt like a prepared statement: same gates,
// latches, stats and change record, Cache == "".

// ParsedQuery is a SELECT parsed once and shared, like a plan-cache AST,
// by every CreateTableAs around it — and so is its slot (slot.go).
type ParsedQuery struct {
	sel   *SelectStmt
	src   string
	parse atomic.Int64 // one-time parse cost, charged to the first execution
	slot  stmtSlot
}

// ParseQuery parses a SELECT for CreateTableAs.
func ParseQuery(sql string) (*ParsedQuery, error) {
	start := time.Now()
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: %s statement is not a query", StmtKind(st))
	}
	q := &ParsedQuery{sel: sel, src: sql}
	q.parse.Store(int64(time.Since(start)))
	return q, nil
}

// SQL returns the text the query was parsed from.
func (q *ParsedQuery) SQL() string { return q.src }

func dropTableStmt(name string, ifExists bool) (Stmt, string) {
	text := "DROP TABLE "
	if ifExists {
		text = "DROP TABLE IF EXISTS "
	}
	return &DropTableStmt{Table: name, IfExists: ifExists}, text + name
}

func selectAllStmt(name string) (Stmt, string) {
	return &SelectStmt{Items: []SelectItem{{Star: true}}, From: []Source{{Table: name}}},
		"SELECT * FROM " + name
}

func createTableAsStmt(name string, q *ParsedQuery) (Stmt, string) {
	return &CreateTableStmt{Table: name, AsQuery: q.sel}, "CREATE TABLE " + name + " AS " + q.src
}

// execBuilt executes a constructor's statement. Names render unquoted, so
// one the lexer would not read back as that identifier is refused.
func (s *Session) execBuilt(name string, st Stmt, src string, slot *stmtSlot, charge *atomic.Int64, params []Value) (*Result, error) {
	l := lexer{src: name}
	if name != "" && isIdentStart(firstRune(name)) {
		l.skipIdentPart()
	}
	if l.pos == 0 || l.pos < len(name) || keywords[strings.ToUpper(name)] {
		return nil, fmt.Errorf("sqldb: %q is not a plain identifier", name)
	}
	return s.execStmt(&parsedStmt{st: st, slot: slot, norm: src}, charge, params)
}

// DropTable executes DROP TABLE [IF EXISTS] name.
func (s *Session) DropTable(name string, ifExists bool) (*Result, error) {
	st, src := dropTableStmt(name, ifExists)
	return s.execBuilt(name, st, src, nil, nil, nil)
}

// SelectAll executes SELECT * FROM name.
func (s *Session) SelectAll(name string) (*Result, error) {
	st, src := selectAllStmt(name)
	return s.execBuilt(name, st, src, nil, nil, nil)
}

// CreateTableAs executes CREATE TABLE name AS q with q's parameters.
func (s *Session) CreateTableAs(name string, q *ParsedQuery, params ...Value) (*Result, error) {
	st, src := createTableAsStmt(name, q)
	return s.execBuilt(name, st, src, &q.slot, &q.parse, params)
}
