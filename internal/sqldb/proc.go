package sqldb

// NativeProc is a stored procedure implemented in Go. It runs inside the
// engine (holding the database lock is handled by the caller); it receives
// an already-open session and may return a result set.
type NativeProc func(s *Session) (*Result, error)

// Procedure is a stored procedure: either a parsed SQL body (created via
// CREATE PROCEDURE name () AS '...') or a native Go implementation
// (registered via DB.RegisterProcedure). Neither takes parameters.
type Procedure struct {
	Name   string
	Body   []Stmt
	Native NativeProc
	slots  []stmtSlot // one per Body statement
	src    string     // original body text, for Dump
}
