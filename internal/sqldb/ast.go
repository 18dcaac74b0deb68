package sqldb

// This file defines the abstract syntax tree produced by the parser and
// consumed by the executor.

// Stmt is any parsed SQL statement.
type Stmt interface{ stmtNode() }

// Expr is any parsed SQL expression.
type Expr interface{ exprNode() }

// --- Statements ---

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    []Source // FROM's table, then each JOIN's; empty means a FROM-less SELECT
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   Expr // nil if absent
}

// SelectItem is one projection item of a SELECT list.
type SelectItem struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

// Source is what FROM and JOIN range over: a base table by name, and for
// a JOIN its ON condition.
type Source struct {
	Table string
	Alias string
	On    Expr // nil for FROM's table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...) | SELECT ...
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr    // literal VALUES rows
	Query   *SelectStmt // INSERT ... SELECT
}

// UpdateStmt is UPDATE t SET c = e, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       ColumnType
	NotNull    bool
	PrimaryKey bool
}

// CreateTableStmt is CREATE TABLE t (...).
type CreateTableStmt struct {
	Table   string
	Columns []ColumnDef
	AsQuery *SelectStmt // CREATE TABLE t AS SELECT ...
}

// DropTableStmt is DROP TABLE [IF EXISTS] t.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// CreateIndexStmt is CREATE INDEX i ON t (cols).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

// CreateSequenceStmt is CREATE SEQUENCE s [START WITH n] [INCREMENT BY n].
type CreateSequenceStmt struct {
	Name      string
	Start     int64
	Increment int64
}

// CreateProcedureStmt is CREATE PROCEDURE p () AS 'sql; sql; ...'. The
// body is a string literal of semicolon-separated statements, parsed at
// creation time; a procedure takes no parameters.
type CreateProcedureStmt struct {
	Name string
	Body string
}

// DropProcedureStmt is DROP PROCEDURE [IF EXISTS] p.
type DropProcedureStmt struct {
	Name     string
	IfExists bool
}

// CallStmt is CALL p().
type CallStmt struct{ Name string }

// ExplainStmt is EXPLAIN <select>: it returns the access plan the
// executor would use instead of running the query.
type ExplainStmt struct{ Query *SelectStmt }

// BeginStmt is BEGIN [TRANSACTION|WORK].
type BeginStmt struct{}

// CommitStmt is COMMIT [TRANSACTION|WORK].
type CommitStmt struct{}

// RollbackStmt is ROLLBACK [TRANSACTION|WORK].
type RollbackStmt struct{}

func (*SelectStmt) stmtNode()          {}
func (*InsertStmt) stmtNode()          {}
func (*UpdateStmt) stmtNode()          {}
func (*DeleteStmt) stmtNode()          {}
func (*CreateTableStmt) stmtNode()     {}
func (*DropTableStmt) stmtNode()       {}
func (*CreateIndexStmt) stmtNode()     {}
func (*CreateSequenceStmt) stmtNode()  {}
func (*CreateProcedureStmt) stmtNode() {}
func (*DropProcedureStmt) stmtNode()   {}
func (*CallStmt) stmtNode()            {}
func (*ExplainStmt) stmtNode()         {}
func (*BeginStmt) stmtNode()           {}
func (*CommitStmt) stmtNode()          {}
func (*RollbackStmt) stmtNode()        {}

// --- Expressions ---

// Literal is a constant value.
type Literal struct{ Val Value }

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// ParamRef is a parameter placeholder, ? or a named @name, bound
// by its 0-based slot in the parameter vector (the parser's numbering).
type ParamRef struct {
	Index int
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string // =, <>, <, <=, >, >=, +, AND, OR
	L, R Expr
}

// UnaryExpr applies a unary operator: -.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is a scalar or aggregate function call.
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*Literal) exprNode()    {}
func (*ColumnRef) exprNode()  {}
func (*ParamRef) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*FuncCall) exprNode()   {}

// stmtKinds is the closed set of labels StmtKind can return (plus
// "OTHER"), so metric sinks can precompute per-kind metric names.
var stmtKinds = []string{
	"SELECT", "INSERT", "UPDATE", "DELETE",
	"CREATE TABLE", "DROP TABLE", "CREATE INDEX", "CREATE SEQUENCE",
	"CREATE PROCEDURE", "DROP PROCEDURE",
	"CALL", "EXPLAIN", "BEGIN", "COMMIT", "ROLLBACK", "OTHER",
}

// StmtKind returns a coarse statement-kind label ("SELECT", "INSERT",
// "COMMIT", ...) used by the exec hook (fault injection) and tooling.
func StmtKind(st Stmt) string {
	switch st.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *DropTableStmt:
		return "DROP TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *CreateSequenceStmt:
		return "CREATE SEQUENCE"
	case *CreateProcedureStmt:
		return "CREATE PROCEDURE"
	case *DropProcedureStmt:
		return "DROP PROCEDURE"
	case *CallStmt:
		return "CALL"
	case *ExplainStmt:
		return "EXPLAIN"
	case *BeginStmt:
		return "BEGIN"
	case *CommitStmt:
		return "COMMIT"
	case *RollbackStmt:
		return "ROLLBACK"
	}
	return "OTHER"
}
