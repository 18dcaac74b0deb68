// Package bis reimplements the SQL inline support of IBM's Business
// Integration Suite as surveyed by the paper: the Information Server
// plugin's *information service activities* (SQL activity, retrieve set
// activity, atomic SQL sequence), set reference variables that pass
// external data sets by reference, data source variables with dynamic
// binding, and preparation/cleanup statement lifecycle management for
// database entities.
//
// Process models are built with ProcessBuilder (the WebSphere Integration
// Developer role) and executed on the shared BPEL engine in
// internal/engine (the WebSphere Process Server role).
package bis

import (
	"fmt"
	"strconv"
	"strings"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/sqldb"
)

// stateKey is the instance-context key of the BIS runtime state.
const stateKey = "bis.state"

// SetRefKind distinguishes input and result set references.
type SetRefKind int

// Set reference kinds: an input set reference refers to an existing table;
// a result set reference refers to a (typically generated) table holding a
// query or stored-procedure result.
const (
	InputSetRef SetRefKind = iota
	ResultSetRef
)

// SetRef is a set reference variable: a handle to an external table used
// in place of a static table name, so external data sets are passed across
// activities and processes by reference instead of by value.
type SetRef struct {
	Name  string
	Kind  SetRefKind
	Table string // bound table name; for result refs, generated per instance

	// Preparation and Cleanup are DDL statements bound to this set
	// reference; {TABLE} inside them is substituted with the bound table
	// name. Cleanup runs at the end of the workflow.
	Preparation string
	Cleanup     string

	// generated marks a table the engine created for this reference: with
	// no Cleanup statement it is dropped at the end of the workflow.
	// dataSource is the data source it was created on, where its lifecycle
	// statements run ("" = the first declared data source variable's).
	generated  bool
	dataSource string
}

// state is the per-instance BIS runtime state. Its SQL runs on the
// instance's session per database (host.Instance.SQL); txns lists those
// sessions in a transaction the state opened. Like its instance, it is
// touched only on the instance's goroutine and holds no lock.
type state struct {
	refs   map[string]*SetRef
	dsvars map[string]string // data source variable -> data source name
	txns   []*sqldb.Session
	atomic int // depth of atomic SQL sequences
	mode   engine.TransactionMode

	// Durability wiring: with a journal attached, transaction
	// boundaries (BEGIN/COMMIT/ROLLBACK) are written ahead so recovery
	// knows which SQL memos are durable (committed) and which belong
	// to a unit of work that must re-run as a whole.
	jrec *journal.Recorder
	inst *engine.Instance // its ID keys the records; its SQL runs the COMMITs
}

// journalTxn appends a transaction-boundary record (best effort).
func (st *state) journalTxn(kind journal.Kind, label string) {
	if st.jrec == nil {
		return
	}
	_ = st.jrec.Txn(st.inst.ID, kind, label)
}

func getState(ctx *engine.Ctx) (*state, error) {
	v, ok := ctx.Inst.Context(stateKey)
	if !ok {
		return nil, fmt.Errorf("bis: process was not built with bis.ProcessBuilder")
	}
	return v.(*state), nil
}

// SetReference returns the named set reference of a running instance.
func SetReference(ctx *engine.Ctx, name string) (*SetRef, error) {
	st, err := getState(ctx)
	if err != nil {
		return nil, err
	}
	r, ok := st.refs[name]
	if !ok {
		return nil, fmt.Errorf("bis: no set reference %s", name)
	}
	return r, nil
}

// BindSetReference redefines a set reference to point at another table at
// runtime (dynamic binding of external data sets).
func BindSetReference(ctx *engine.Ctx, name, table string) error {
	r, err := SetReference(ctx, name)
	if err != nil {
		return err
	}
	r.Table = table
	return nil
}

// RebindDataSource redirects a data source variable to another registered
// data source at runtime — the paper's example of switching between a test
// and a production environment without redeploying the process.
func RebindDataSource(ctx *engine.Ctx, dsVar, dataSource string) error {
	st, err := getState(ctx)
	if err != nil {
		return err
	}
	if _, err := ctx.Engine.DataSource(dataSource); err != nil {
		return err
	}
	if _, ok := st.dsvars[dsVar]; !ok {
		return fmt.Errorf("bis: no data source variable %s", dsVar)
	}
	st.dsvars[dsVar] = dataSource
	return nil
}

// resolveDB resolves a data source variable to its database.
func (st *state) resolveDB(ctx *engine.Ctx, dsVar string) (*sqldb.DB, error) {
	dsName, ok := st.dsvars[dsVar]
	if !ok {
		return nil, fmt.Errorf("bis: no data source variable %s", dsVar)
	}
	return ctx.Engine.DataSource(dsName)
}

// begin opens a transaction on s, the instance's session on a database,
// when the transaction policy asks for one and s has none open:
//
//   - short-running process: all SQL and retrieve-set activities share one
//     transaction per data source, opened on first use and ended when the
//     process completes;
//   - long-running process: autocommit per activity, unless inside an
//     atomic SQL sequence, which opens a transaction that the sequence
//     commits (or rolls back on fault).
func (st *state) begin(s *sqldb.Session) {
	needTxn := st.mode == engine.ShortRunning || st.atomic > 0
	if needTxn && !s.InTransaction() {
		if _, err := s.Exec("BEGIN"); err == nil {
			st.txns = append(st.txns, s)
			st.journalTxn(journal.KindTxnBegin, st.modeLabel())
		}
	}
}

// transactional reports whether SQL activities currently participate in a
// surrounding transaction (short-running process or open atomic region) —
// the condition under which per-statement retries are suppressed.
func (st *state) transactional() bool {
	return st.mode == engine.ShortRunning || st.atomic > 0
}

// modeLabel describes the reason SQL statements are transactional right
// now.
func (st *state) modeLabel() string {
	if st.mode == engine.ShortRunning {
		return "short-running"
	}
	if st.atomic > 0 {
		return "atomic-sequence"
	}
	return "long-running"
}

// enterAtomic begins an atomic SQL sequence region.
func (st *state) enterAtomic() {
	st.atomic++
}

// exitAtomic ends an atomic region, committing (or rolling back) every
// transaction opened inside it. Short-running processes already run in a
// single process-wide transaction, so nothing is ended early. A
// simulated crash skips the boundary entirely: a dead process commits
// nothing and journals nothing, and the instance's end rolls back its
// sessions' open transactions, as the server would for dead connections.
func (st *state) exitAtomic(fault error) error {
	st.atomic--
	if journal.IsCrash(fault) {
		return nil
	}
	if st.mode == engine.ShortRunning || st.atomic > 0 {
		return nil
	}
	return st.endTxns(fault, "atomic-sequence")
}

// finish ends all open process-wide transactions at instance completion.
func (st *state) finish(fault error) {
	_ = st.endTxns(fault, "short-running")
}

// endTxns commits (on fault, rolls back) every open transaction and
// journals how each ended, under label; it reports the first failed
// COMMIT. A COMMIT is an instance statement (host.Instance.SQL), so its
// span is parented at the activity that ends the transaction, or at the
// instance span at completion.
func (st *state) endTxns(fault error, label string) error {
	var firstErr error
	for _, s := range st.txns {
		if fault != nil {
			s.Rollback()
			st.journalTxn(journal.KindTxnRollback, label)
		} else if err := st.inst.SQL(s.DB(), nil, commit); err != nil {
			// A failed commit leaves the transaction in doubt; resolve
			// it by rolling back so a unit-of-work retry starts from a
			// clean state instead of replaying on top of live changes.
			s.Rollback()
			st.journalTxn(journal.KindTxnRollback, label)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			st.journalTxn(journal.KindTxnCommit, label)
		}
	}
	clear(st.txns)
	st.txns = st.txns[:0]
	return firstErr
}

// commit is endTxns' statement on an instance session.
func commit(s *sqldb.Session) error {
	_, err := s.Exec("COMMIT")
	return err
}

// substituteSQL renders a statement split at its #name# markers (even
// parts are text, odd parts names — see NewSQL): set references become
// their bound table names; scalar process variables become bound
// parameters.
func substituteSQL(ctx *engine.Ctx, st *state, sql string, parts []string) (string, []sqldb.Value, error) {
	if len(parts) == 1 {
		return parts[0], nil, nil // nothing to substitute; keep the cached text
	}
	if len(parts)%2 == 0 {
		return "", nil, fmt.Errorf("bis: unterminated #variable# reference in SQL")
	}
	var out strings.Builder
	out.Grow(len(sql))
	params := make([]sqldb.Value, 0, len(parts)/2)
	for i, name := range parts {
		if i%2 == 0 {
			out.WriteString(name)
			continue
		}
		ref, isRef := st.refs[name]
		if isRef {
			if ref.Table == "" {
				return "", nil, fmt.Errorf("bis: set reference %s is not bound to a table", name)
			}
			out.WriteString(ref.Table)
			continue
		}
		v, err := ctx.Variable(name)
		if err != nil {
			return "", nil, fmt.Errorf("bis: #%s#: %w", name, err)
		}
		out.WriteString("?")
		params = append(params, scalarValue(v.String()))
	}
	return out.String(), params, nil
}

// scalarValue converts a process variable's string to the most specific
// SQL value so comparisons against numeric columns behave naturally.
// numericLead reports whether s can possibly parse as a number — a
// cheap gate that keeps the common non-numeric case from allocating
// strconv syntax errors on every variable substitution.
func numericLead(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9')
}

func scalarValue(s string) sqldb.Value {
	if numericLead(s) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return sqldb.Int(i)
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return sqldb.Float(f)
		}
	}
	switch s {
	case "true", "TRUE":
		return sqldb.Bool(true)
	case "false", "FALSE":
		return sqldb.Bool(false)
	}
	return sqldb.Str(s)
}
