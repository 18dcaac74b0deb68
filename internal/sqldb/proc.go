package sqldb

// NativeProc is a stored procedure implemented in Go. It runs inside the
// engine (holding the database lock is handled by the caller); it receives
// an already-open session and the CALL arguments, and may return a result
// set.
type NativeProc func(s *Session, args []Value) (*Result, error)

// Procedure is a stored procedure: either a parsed SQL body (created via
// CREATE PROCEDURE name(params) AS '...') or a native Go implementation
// (registered via DB.RegisterProcedure).
type Procedure struct {
	Name   string
	Params []string
	Body   []Stmt
	Native NativeProc
	shape  paramShape // the body's slots: CALL binds its names from Params
	slots  []stmtSlot // one per Body statement
	src    string     // original body text, for Dump
}
