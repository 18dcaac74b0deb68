package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Session is a connection-like handle on a DB. A session may hold an
// explicit transaction (BEGIN ... COMMIT/ROLLBACK); outside of one, every
// statement autocommits.
//
// The workflow layers follow a one-session-per-instance contract; a
// session serializes its own top-level statements with an internal mutex,
// so parallel Flow branches of one instance sharing the instance session
// are safe (their statements interleave, they do not corrupt session
// state). Distinct instances must still use distinct sessions — an open
// transaction belongs to the whole session, not to a goroutine.
type Session struct {
	db *DB

	// id distinguishes sessions in the change stream (SetChangeSink):
	// replication replays interleaved transactions from many origin
	// sessions, and the id is how an Applier routes each statement onto
	// the replica session holding the matching open transaction. Child
	// sessions share their parent's id.
	id int64

	// applier marks a session minted by NewApplier: its writes bypass
	// the read-only replica gate (SetReadOnly) — they ARE the
	// replication stream — and are never re-captured by the change sink.
	applier bool

	// locked marks a child session minted by execCall for native
	// procedures: the enclosing statement already holds the engine lock
	// and the session mutex, so the child's statements take the
	// re-entrant path. It is set at construction and never mutated, which
	// keeps the flag data-race-free even when the parent session is
	// shared across goroutines.
	locked bool

	// mu serializes top-level statement execution and Rollback on this
	// session. Re-entrant execution (child sessions, below) runs inside
	// the owner's critical section and bypasses it.
	mu  sync.Mutex
	txn *txn // the open transaction: &tx, or a parent's for a child session

	// What a statement reuses instead of allocating, only under mu (a
	// child session has its own); between statements none holds a row or
	// more than idleCap entries.
	tx      txn
	scope   env
	inner   *innerScope // a CALL body's statement scopes by depth; a pointer, so Session stays 320 B
	latches []latchTarget
	params  []Value

	// snap is the executing statement's snapshot: the highest commit
	// sequence whose effects the statement sees (plus its own
	// transaction's pending versions). Taken at statement start.
	snap int64

	// per-statement stats plumbing (see stats.go)
	sink        StatsSink // session-level override of the DB sink
	planTable   string    // primary access-path table of current stmt
	planIndex   string    // index probed by the current stmt ("" = scan)
	rowsScanned int64     // candidate rows read by the current stmt

	// runCtx, when bound, is the session's execution budget (the owning
	// workflow instance's deadline). Guarded by mu; checked at every
	// top-level statement boundary.
	runCtx context.Context
}

// innerScope is the scope a session keeps for the statements of a CALL's
// body at one nesting depth, linked to the next depth's.
type innerScope struct {
	env
	next *innerScope
}

// ErrBudgetExhausted is wrapped by the error a statement boundary
// returns when the session's bound context has expired. It carries
// Temporary() == false through the wrapper, so resilience retry
// policies classify it permanent — retrying a statement cannot revive
// a dead budget.
var ErrBudgetExhausted = errors.New("sqldb: session budget exhausted")

// budgetError wraps ErrBudgetExhausted with the context cause and a
// permanent classification.
type budgetError struct{ cause error }

func (e *budgetError) Error() string {
	return ErrBudgetExhausted.Error() + ": " + e.cause.Error()
}
func (e *budgetError) Unwrap() error   { return ErrBudgetExhausted }
func (e *budgetError) Temporary() bool { return false }

// BindContext attaches (or with nil detaches) an execution budget to
// the session. Once the context is done, every subsequent top-level
// statement is refused at the boundary — before the ExecHook, before
// the engine lock — with an error wrapping ErrBudgetExhausted. A
// statement already executing is never interrupted (statement
// atomicity is preserved); open explicit transactions stay open so the
// owning layer's rollback handling runs normally.
func (s *Session) BindContext(ctx context.Context) {
	s.mu.Lock()
	s.runCtx = ctx
	s.mu.Unlock()
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.txn != nil && s.txn.explicit }

// DB returns the database this session is attached to.
func (s *Session) DB() *DB { return s.db }

// ID returns the session's database-unique id (the origin-session key
// of its statements in the change stream).
func (s *Session) ID() int64 { return s.id }

// Exec parses and executes one SQL statement with positional parameters.
// The parse goes through the database's statement cache, which keys
// plans by NORMALIZED text — literals extracted into bind slots — so
// repeated executions that differ only in literal values reuse one
// cached plan and report zero parse time (StmtStats.Cache records
// "hit" vs "miss").
//
// Named placeholders (@name) are slots too, numbered after the
// text's `?`s in order of first appearance (ParamNames lists them), so
// params may carry their values as its tail.
func (s *Session) Exec(sql string, params ...Value) (*Result, error) {
	ps, err := s.db.cachedParse(sql)
	if err != nil {
		return nil, err
	}
	return s.execParsed(sql, &ps, params)
}

// ExecNamed is Exec with the named placeholders bound from a map (keys
// are case-insensitive) after the `?` values in params. A name the map
// lacks fails before anything executes.
func (s *Session) ExecNamed(sql string, named map[string]Value, params ...Value) (*Result, error) {
	ps, err := s.db.cachedParse(sql)
	if err != nil {
		return nil, err
	}
	// The caller's own `?`s are the cached parse's slots less the
	// literals normalization extracted from this text.
	shape := ps.shape
	shape.positional -= len(ps.consts)
	vals, err := shape.bindNamed(params, named)
	if err != nil {
		return nil, err
	}
	return s.execParsed(sql, &ps, vals)
}

// execParsed is the text-execution path behind Exec, ExecNamed and the
// replication Applier, past the plan cache: execute with the text's
// extracted literals folded into the positional vector. The NORMALIZED
// text and the MERGED parameters are what flow to the change stream — a
// replica re-normalizing that text extracts nothing (the rendering is
// idempotent) and binds the same merged vector, so primary and replica
// execute the identical plan with identical inputs.
func (s *Session) execParsed(sql string, ps *parsedStmt, params []Value) (*Result, error) {
	if len(ps.consts) > 0 && len(params) < userSlots(ps.pattern) {
		// Fewer caller values than user slots: only an uncached parse of
		// the raw text can report the missing parameter by the caller's
		// own placeholder numbering (the error is raised lazily, and only
		// if the slot is actually referenced).
		start := time.Now()
		st, perr := Parse(sql)
		if perr != nil {
			return nil, perr
		}
		return s.execStmt(&parsedStmt{st: st, norm: sql, parse: time.Since(start), cache: CacheMiss}, nil, params)
	}
	return s.execStmt(ps, nil, params)
}

// PreparedStmt is a parsed statement bound to a session, reusable with
// different parameters — the host-variable execution path the product
// layers use for repeated statements. Prepare bypasses the statement
// cache (the caller is doing its own statement reuse).
type PreparedStmt struct {
	s     *Session
	stmt  Stmt
	src   string     // original SQL text, for the change stream
	shape paramShape // its `?`s and names, for ExecNamed
	slot  stmtSlot   // footprint and idle plan (slot.go)

	// parse is the one-time parse cost in nanoseconds, zero once an
	// execution has reported it. execStmt takes it (one swap) only after
	// the budget, read-only and ExecHook gates have let the statement
	// through, so a refused execution never held the charge.
	parse atomic.Int64
}

// Prepare parses a statement once for repeated execution.
func (s *Session) Prepare(sql string) (*PreparedStmt, error) {
	start := time.Now()
	st, shape, err := parseOne(sql)
	if err != nil {
		return nil, err
	}
	p := &PreparedStmt{s: s, stmt: st, src: sql, shape: shape}
	p.parse.Store(int64(time.Since(start)))
	return p, nil
}

// Exec runs the prepared statement with positional parameters (named
// placeholders bind from the tail, as for Session.Exec).
func (p *PreparedStmt) Exec(params ...Value) (*Result, error) {
	return p.s.execStmt(&parsedStmt{st: p.stmt, slot: &p.slot, norm: p.src}, &p.parse, params)
}

// ExecNamed runs the prepared statement with its named placeholders bound
// from a map, as Session.ExecNamed does.
func (p *PreparedStmt) ExecNamed(named map[string]Value, params ...Value) (*Result, error) {
	vals, err := p.shape.bindNamed(params, named)
	if err != nil {
		return nil, err
	}
	return p.Exec(vals...)
}

// Query executes a statement and requires it to produce a result set.
func (s *Session) Query(sql string, params ...Value) (*Result, error) {
	r, err := s.Exec(sql, params...)
	if err != nil {
		return nil, err
	}
	if !r.IsQuery() {
		return nil, fmt.Errorf("sqldb: statement did not return rows")
	}
	return r, nil
}

// readOnlyStmt reports whether a statement only reads database state and
// can therefore execute latch-free under the shared engine lock. SELECT
// may still advance sequences via NEXTVAL; Sequence is internally
// synchronized for exactly that reason.
func readOnlyStmt(st Stmt) bool {
	switch st.(type) {
	case *SelectStmt, *ExplainStmt:
		return true
	}
	return false
}

// isDDL reports whether a statement changes schema objects (tables,
// indexes, sequences, procedures).
func isDDL(st Stmt) bool {
	switch st.(type) {
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt,
		*CreateSequenceStmt, *CreateProcedureStmt, *DropProcedureStmt:
		return true
	}
	return false
}

// execStmt is the top-level execution path: session mutex, ExecHook,
// then one of three locking regimes chosen by runStmt (latch-free
// shared read, per-table latches, or the exclusive engine lock),
// statement execution, then stats emission. ps's parse and cache
// describe how the statement text was resolved (see Exec/cachedParse)
// and flow into the emitted StmtStats; a pre-parsed statement passes its
// one-time parse cost as charge (nil on the text path), and it is taken
// here, past the gates that can refuse the statement. ps.norm is the
// text change-stream capture needs. user and ps's literals are merged
// into the session's vector under the lock: no caller's slice is kept.
//
// Autocommit statements that lose a first-writer-wins race are retried
// here against a fresh snapshot with exponential backoff before the
// conflict is surfaced; the backoff is charged to StmtStats.LockWait.
// Statements inside an explicit transaction are not retried — earlier
// statements of the transaction saw older snapshots, so the decision
// belongs to the caller.
func (s *Session) execStmt(ps *parsedStmt, charge *atomic.Int64, user []Value) (res *Result, err error) {
	st := ps.st
	if s.locked {
		// Re-entrant execution (native procedure bodies running on a
		// child session): no hook, no stats — the enclosing statement
		// accounts for it.
		s.params = mergeParams(s.params[:0], user, ps.consts, ps.pattern)
		return s.execStmtLocked(st, ps.slot, s.params, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	params := mergeParams(s.params[:0], user, ps.consts, ps.pattern)
	defer func() { s.params = idleBuf(params) }()
	// Deadline propagation: a session whose bound budget has expired
	// refuses the statement at the boundary, before anything executes.
	if s.runCtx != nil {
		if cerr := s.runCtx.Err(); cerr != nil {
			s.db.deadlineRefusals.Add(1)
			return nil, &budgetError{cause: cerr}
		}
	}
	// Read-only replica gate: only applier sessions (the replication
	// stream itself) may mutate a database in replica mode. Refused at
	// the boundary like a hook refusal — nothing has executed.
	if !readOnlyStmt(st) && !s.applier && s.db.readOnly.Load() {
		return nil, &readOnlyError{kind: StmtKind(st)}
	}
	if h := installed(&s.db.execHook); h != nil {
		if err := h(StmtKind(st)); err != nil {
			return nil, err
		}
	}
	parse := ps.parse
	if charge != nil {
		parse = time.Duration(charge.Swap(0))
	}
	sink := s.sink
	if sink == nil {
		sink = installed(&s.db.statsSink)
	}
	var stat *StmtStats
	var backoff time.Duration
	var conflictTable string
	canRetry := s.txn == nil
	for attempt := 0; ; attempt++ {
		stat, res, err = s.runStmt(ps, parse, params, sink != nil)
		if err == nil || !canRetry || attempt >= conflictRetryLimit {
			break
		}
		table, conflict := isWriteConflict(err)
		if !conflict {
			break
		}
		// All locks are released here (runStmt unwound fully); sleep,
		// then re-run against a fresh snapshot.
		d := conflictBackoff(attempt)
		backoff += d
		conflictTable = table
		time.Sleep(d)
	}
	if stat != nil {
		if backoff > 0 {
			stat.LockWait += backoff
			if conflictTable != "" {
				if stat.LockWaitByTable == nil {
					stat.LockWaitByTable = map[string]time.Duration{}
				}
				stat.LockWaitByTable[conflictTable] += backoff
			}
		}
		sink(*stat)
	}
	return res, err
}

// runStmt executes one attempt of a statement under the locking regime
// its shape requires:
//
//   - SELECT/EXPLAIN: shared engine lock only — snapshot reads, no
//     latches, never blocked by writers.
//   - DML, transaction control, and CALLs of SQL procedures: shared
//     engine lock plus per-table latches over the statement's static
//     footprint (exclusive on mutated tables, shared on read tables),
//     acquired in globally sorted name order — the deadlock-avoidance
//     rule.
//   - DDL, native procedures, and statements whose footprint cannot be
//     computed statically: the exclusive engine lock, which excludes
//     every other statement.
//
// Every attempt registers a snapshot for its lifetime (vacuum safety)
// and fully releases locks before returning.
func (s *Session) runStmt(ps *parsedStmt, parse time.Duration, params []Value, wantStats bool) (stat *StmtStats, res *Result, err error) {
	st, slot, src := ps.st, ps.slot, ps.norm
	shared := readOnlyStmt(st)
	exclusive := false
	fp := s.latches[:0]
	// lockWait accumulates only time spent blocked on lock/latch
	// acquisition — the footprint computation between the engine lock and
	// the latches is CPU work, not waiting, and is deliberately untimed.
	// A successful TryLock is by definition a zero wait, so the common
	// uncontended case records an honest 0 instead of clock-read noise.
	var lockWait time.Duration
	if !s.db.mu.TryRLock() {
		lockStart := time.Now()
		s.db.mu.RLock()
		lockWait = time.Since(lockStart)
	}
	if !shared {
		var ok bool
		fp, ok = s.db.stmtFootprint(fp, st, s.txn, slot)
		if !ok {
			s.db.mu.RUnlock()
			if !s.db.mu.TryLock() {
				lockStart := time.Now()
				s.db.mu.Lock()
				lockWait += time.Since(lockStart)
			}
			exclusive = true
		}
	}
	var waits map[string]time.Duration
	if len(fp) > 0 {
		waits = acquireLatches(fp, true)
		for _, d := range waits {
			lockWait += d
		}
	}
	snap := s.db.acquireSnapshot()
	s.snap = snap
	defer func() {
		s.db.releaseSnapshot(snap)
		releaseLatches(fp)
		s.latches = idleBuf(fp)
		if exclusive {
			s.db.mu.Unlock()
		} else {
			s.db.mu.RUnlock()
		}
	}()
	var start time.Time
	if wantStats {
		s.planTable, s.planIndex, s.rowsScanned = "", "", 0
		start = time.Now()
	}
	// The shared dispatch with the change-stream record as its emit
	// step, then an opportunistic vacuum while the latches are held.
	res, err = s.execStmtLocked(st, slot, params, func() { s.emitChange(st, src, params) })
	if err == nil {
		s.vacuumFootprint(fp)
	}
	if !wantStats {
		return nil, res, err
	}
	stat = &StmtStats{
		Start:           start,
		Kind:            StmtKind(st),
		Table:           s.planTable,
		Index:           s.planIndex,
		Plan:            "",
		Parse:           parse,
		Exec:            time.Since(start),
		LockWait:        lockWait,
		LockWaitByTable: waits,
		Cache:           ps.cache,
		RowsScanned:     s.rowsScanned,
	}
	if s.planTable != "" {
		if tbl, terr := s.db.table(s.planTable); terr == nil {
			var idx *Index
			if s.planIndex != "" {
				idx = tbl.indexes[strings.ToLower(s.planIndex)]
			}
			stat.Plan = planLabel(tbl, idx)
		}
	}
	if res != nil {
		stat.RowsReturned = int64(len(res.Rows))
		stat.RowsAffected = res.RowsAffected
	}
	if err != nil {
		stat.Err = err.Error()
	}
	return stat, res, err
}

// vacuumFootprint opportunistically vacuums the statement's
// write-latched tables while the latches are still held.
func (s *Session) vacuumFootprint(fp []latchTarget) {
	var minSnap int64
	computed := false
	for _, lt := range fp {
		if !lt.write || !lt.t.vacuumDue() {
			continue
		}
		if !computed {
			minSnap = s.db.minActiveSnapshot()
			computed = true
		}
		lt.t.maybeVacuum(minSnap, minSnap < s.snap)
	}
}

// emitChange hands a successfully executed statement to the change
// sink, stamped with the next change sequence number. The caller holds
// commitMu: sequence assignment, commit stamping, and sink delivery are
// one critical section, so the stream stays dense and every
// BootstrapState floor cuts it exactly at a committed boundary. The
// statement also still holds its table latches (or the exclusive engine
// lock), so sink order equals execution order on every table — the
// property the replica applier relies on.
//
// Statements of an open explicit transaction are additionally buffered
// in db.openTxns: a committed-only bootstrap dump excludes their
// pending rows, so BootstrapState hands the buffer to new replicas for
// priming. DDL is not buffered — its effects are schema, which the
// bootstrap script already carries.
//
// Applier sessions are skipped — re-capturing the replication stream on
// a replica would loop it.
func (s *Session) emitChange(st Stmt, src string, params []Value) {
	if s.applier || readOnlyStmt(st) {
		return
	}
	sink := installed(&s.db.changeSink)
	if sink == nil {
		return
	}
	c := Change{
		Seq:     s.db.changeSeq.Add(1),
		Session: s.id,
		Kind:    StmtKind(st),
		SQL:     src,
	}
	if len(params) > 0 {
		c.Params = append([]Value(nil), params...)
	}
	if s.txn != nil && s.txn.explicit && !s.txn.aborted && !isDDL(st) {
		if s.db.openTxns == nil {
			s.db.openTxns = map[int64][]Change{}
		}
		s.db.openTxns[s.id] = append(s.db.openTxns[s.id], c)
	}
	sink(c)
}

// execStmtLocked executes one statement with the engine locks already
// held — the one path shared by top-level execution (runStmt) and
// re-entrant execution (native-procedure child sessions, SQL procedure
// bodies); slot is the statement's, nil for one planned per execution.
// emit is the change-stream step: the top-level caller's runs
// inside the same commitMu hold as the commit stamp, which keeps the
// stream dense and exactly paired with BootstrapState floors;
// re-entrant callers pass nil (the stream carries the enclosing
// statement).
func (s *Session) execStmtLocked(st Stmt, slot *stmtSlot, params []Value, emit func()) (*Result, error) {
	s.db.stmtCount.Add(1)
	switch st.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return s.txnControl(st, emit)
	}
	// Statement atomicity: with no transaction open the statement runs
	// in a local one, resolved by finishStmt.
	local := s.txn == nil
	if local {
		s.begin(false)
	}
	res, err := s.dispatch(st, slot, params)
	s.finishStmt(local, err, emit)
	return res, err
}

// txnControl performs BEGIN, COMMIT or ROLLBACK on the session. Commit
// stamping, the emit step and the open-transaction bookkeeping share
// one commitMu critical section. BEGIN emits with the new transaction
// already set (which registers its bootstrap buffer); COMMIT and
// ROLLBACK emit with it already cleared.
func (s *Session) txnControl(st Stmt, emit func()) (*Result, error) {
	_, begin := st.(*BeginStmt)
	_, commit := st.(*CommitStmt)
	tx := s.txn
	switch {
	case begin && tx != nil:
		return nil, fmt.Errorf("sqldb: transaction already open")
	case !begin && tx == nil:
		return nil, fmt.Errorf("sqldb: no transaction open")
	case begin:
		s.begin(true)
	default:
		s.txn = nil
		if !commit {
			rollbackStamps(tx)
		}
	}
	s.db.commitMu.Lock()
	if commit {
		s.db.stampCommit(tx)
	}
	if emit != nil {
		emit()
	}
	if !begin {
		delete(s.db.openTxns, s.id)
	}
	s.db.commitMu.Unlock()
	return &Result{}, nil
}

// begin opens a transaction on the session's own txn and write set.
func (s *Session) begin(explicit bool) {
	s.tx = txn{id: s.db.txnIDs.Add(1), ws: s.tx.ws[:0], explicit: explicit}
	s.txn = &s.tx
}

// finishStmt resolves a statement once its dispatch returned. A local
// transaction still open is rolled back on error and stamp-committed on
// success (a no-op if a child session rolled it back); inside an
// explicit transaction the effects stay pending. A successful statement
// is handed to emit in the same commitMu hold as its commit stamp.
func (s *Session) finishStmt(local bool, err error, emit func()) {
	tx := s.txn
	own := local && tx != nil // false when a procedure body closed it
	if err != nil {
		if own {
			rollbackStamps(tx)
			s.txn = nil
		}
		return
	}
	if own || emit != nil {
		s.db.commitMu.Lock()
		if own {
			s.db.stampCommit(tx)
		}
		if emit != nil {
			emit()
		}
		s.db.commitMu.Unlock()
	}
	if own || (tx != nil && tx.aborted) {
		s.txn = nil // resolved here, or closed by a child session's Rollback
	}
}

// dispatch executes one non-transaction-control statement inside the
// session's open transaction. The slot's plan serves the statement's
// SELECT (also under EXPLAIN and CREATE TABLE … AS), its UPDATE/DELETE
// row filter or its INSERT's rows.
func (s *Session) dispatch(st Stmt, slot *stmtSlot, params []Value) (res *Result, err error) {
	// The statement's scope: the session's own, or, while enclosing CALLs
	// hold it, the one kept for this depth of procedure bodies.
	scope := &s.scope
	for in := &s.inner; scope.session != nil; in = &(*in).next {
		if *in == nil {
			*in = new(innerScope)
		}
		scope = &(*in).env
	}
	defer func() { *scope = env{} }()
	*scope = env{params: params, session: s}
	switch t := st.(type) {
	case *SelectStmt:
		res, err = s.execSelect(t, scope, slot)
		if err == nil {
			b := res.approxBytes()
			s.db.bytesReturned.Add(b)
		}
		return res, err
	case *InsertStmt:
		return s.execInsert(t, slot, scope)
	case *UpdateStmt:
		return s.execUpdate(t, slot, scope)
	case *DeleteStmt:
		return s.execDelete(t, slot, scope)
	case *CreateTableStmt:
		return s.execCreateTable(t, slot, scope)
	case *DropTableStmt:
		lc := strings.ToLower(t.Table)
		tbl, ok := s.db.tables[lc]
		if !ok {
			return absent(t.IfExists, "table", t.Table)
		}
		for in := range tbl.indexes {
			delete(s.db.indexOwner, in)
		}
		delete(s.db.tables, lc)
		tbl.schemaVer++
		return &Result{}, nil
	case *CreateIndexStmt:
		tbl, err := s.db.table(t.Table)
		if err != nil {
			return nil, err
		}
		lc := strings.ToLower(t.Name)
		if _, exists := s.db.indexOwner[lc]; exists {
			return nil, fmt.Errorf("sqldb: index %s already exists", t.Name)
		}
		idx, err := newIndex(t.Name, tbl, t.Columns, false)
		if err != nil {
			return nil, err
		}
		tbl.indexes[lc] = idx
		s.db.indexOwner[lc] = tbl
		tbl.schemaVer++
		return &Result{}, nil
	case *CreateSequenceStmt:
		lc := strings.ToLower(t.Name)
		if _, exists := s.db.sequences[lc]; exists {
			return nil, fmt.Errorf("sqldb: sequence %s already exists", t.Name)
		}
		s.db.sequences[lc] = &Sequence{Name: t.Name, next: t.Start, increment: t.Increment}
		return &Result{}, nil
	case *CreateProcedureStmt:
		body, shape, err := parseScript(t.Body)
		if err == nil && (shape.positional > 0 || len(shape.names) > 0) {
			err = fmt.Errorf("a procedure takes no parameters")
		}
		if err != nil {
			return nil, fmt.Errorf("sqldb: procedure %s body: %w", t.Name, err)
		}
		lc := strings.ToLower(t.Name)
		if _, exists := s.db.procs[lc]; exists {
			return nil, fmt.Errorf("sqldb: procedure %s already exists", t.Name)
		}
		proc := &Procedure{Name: t.Name, Body: make([]Stmt, len(body)), slots: make([]stmtSlot, len(body)), src: t.Body}
		for i, b := range body {
			proc.Body[i] = b.st
		}
		s.db.procs[lc] = proc
		s.db.footGen.Add(1) // CALL footprints expand procedure bodies
		return &Result{}, nil
	case *DropProcedureStmt:
		lc := strings.ToLower(t.Name)
		if _, ok := s.db.procs[lc]; !ok {
			return absent(t.IfExists, "procedure", t.Name)
		}
		delete(s.db.procs, lc)
		s.db.footGen.Add(1)
		return &Result{}, nil
	case *CallStmt:
		return s.execCall(t)
	case *ExplainStmt:
		return s.execExplain(t, slot, scope)
	}
	return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
}

// absent answers a DROP of an object that does not exist: nothing under
// IF EXISTS, an error otherwise.
func absent(ifExists bool, kind, name string) (*Result, error) {
	if ifExists {
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqldb: no such %s %s", kind, name)
}

// Rollback aborts any open explicit transaction (no-op otherwise). It is
// used by the workflow layers when a fault aborts an atomic SQL sequence.
//
// A rollback that closed a transaction is emitted to the change stream
// exactly like an executed ROLLBACK statement would be: the replica's
// mapped session holds the mirrored transaction open, and without the
// record it would stay open forever — the origin session's next BEGIN
// would then fail on the replica and wedge replication.
func (s *Session) Rollback() {
	if s.locked {
		// Re-entrant (child session): the enclosing statement already
		// holds the engine lock and the write set's latches. Flipping
		// the stamps marks the shared transaction aborted, which the
		// parent's finishStmt observes and skips committing.
		if s.txn != nil && !s.txn.aborted {
			s.txnControl(rollbackStmt, func() { s.emitChange(rollbackStmt, "ROLLBACK", nil) })
		}
		s.txn = nil
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn != nil {
		// A ROLLBACK statement run below the statement boundary: runStmt
		// latches the write set, but the ExecHook, the budget and
		// read-only gates and stats emission (all in execStmt) are
		// bypassed — an abort must always go through.
		s.runStmt(&parsedStmt{st: rollbackStmt, norm: "ROLLBACK"}, 0, nil, false)
	}
}

var rollbackStmt Stmt = &RollbackStmt{}

func (s *Session) nextSequenceValue(name string) (Value, error) {
	seq, ok := s.db.sequences[strings.ToLower(name)]
	if !ok {
		return Null(), fmt.Errorf("sqldb: no such sequence %s", name)
	}
	return Int(seq.Next()), nil
}

func (s *Session) execInsert(t *InsertStmt, slot *stmtSlot, base *env) (*Result, error) {
	p, err := s.lend(slot, t, base)
	if err != nil {
		return nil, err
	}
	defer slot.put(p)
	tbl, n := p.srcs[0].tbl, len(p.cells)
	var src [][]Value
	if q := p.query; q != nil {
		res, err := q.run(base)
		if err != nil {
			return nil, err
		}
		if len(res.Columns) != len(p.sets) {
			return nil, fmt.Errorf("sqldb: INSERT ... SELECT column count mismatch: %d vs %d", len(p.sets), len(res.Columns))
		}
		src, n = res.Rows, len(res.Rows)
	}
	row := p.newVersion(tbl)
	for i := 0; i < n; i++ {
		clear(row)
		if src != nil {
			for j, ci := range p.sets {
				row[ci] = src[i][j]
			}
		} else if err := fill(row, p.cells[i], &p.env); err != nil {
			return nil, err
		}
		r, err := tbl.insertVersion(row, s.txn.id)
		if err != nil {
			return nil, err
		}
		s.txn.ws = append(s.txn.ws, wsEntry{t: tbl, r: r, kind: wsInsert})
	}
	s.db.rowsWritten.Add(int64(n))
	return &Result{RowsAffected: n}, nil
}

// newVersion returns the plan's buffer for a new version of tbl's rows,
// which insertVersion copies: one per plan, not one per row.
func (p *selectPlan) newVersion(tbl *Table) []Value {
	if len(p.version) != len(tbl.Columns) {
		p.version = make([]Value, len(tbl.Columns))
	}
	return p.version
}

// planInsert plans what an INSERT evaluates once per row, in the
// statement's own scope: its target columns (all, in order, without a
// column list; the others stay NULL) and its rows — the SELECT's plan, or
// per VALUES row one cell per value, each filling its column in written
// order. A cell that does not compile raises its error when an execution
// reaches it, as evaluation in written order would, and the plan is not
// kept.
func (s *Session) planInsert(t *InsertStmt, outer *env, tree *planTree) (*selectPlan, error) {
	p := &selectPlan{s: s, tree: tree, env: env{params: outer.params, session: s}}
	c := newCompiler(&p.env, tree)
	tbl, err := s.db.table(t.Table)
	if err != nil {
		return nil, err
	}
	tree.stamp(tbl)
	p.srcs = []source{{name: tbl.Name, tbl: tbl}}
	for i, name := range t.Columns {
		if p.sets = append(p.sets, tbl.ColumnIndex(name)); p.sets[i] < 0 {
			return nil, fmt.Errorf("sqldb: no column %s in table %s", name, t.Table)
		}
	}
	if len(t.Columns) == 0 {
		for i := range tbl.Columns {
			p.sets = append(p.sets, i)
		}
	}
	if t.Query != nil {
		if p.query, err = s.planSelect(t.Query, outer, tree); err != nil {
			return nil, err
		}
	}
	n := len(p.sets)
	flat := make([]cell, len(t.Rows)*n)
	p.cells = make([][]cell, len(t.Rows))
	for i, row := range t.Rows {
		if len(row) != n {
			err := fmt.Errorf("sqldb: INSERT value count mismatch: %d vs %d", n, len(row))
			p.cells[i] = []cell{{fn: func(*env) (Value, error) { return Null(), err }}}
			continue
		}
		p.cells[i] = flat[i*n : (i+1)*n]
		for j, x := range row {
			p.cells[i][j].pos = p.sets[j]
			c.cell(&p.cells[i][j], x)
		}
	}
	if tree != nil {
		tree.plans = append(tree.plans, p)
		tree.discard = tree.discard || c.err != nil
	}
	return p, nil
}

func (s *Session) execUpdate(t *UpdateStmt, slot *stmtSlot, base *env) (*Result, error) {
	p, err := s.lend(slot, t, base)
	if err != nil {
		return nil, err
	}
	defer slot.put(p)
	// Snapshot matching rows first: predicates must see pre-update state.
	matched, err := p.matchRows()
	if err != nil {
		return nil, err
	}
	tbl, e := p.srcs[0].tbl, &p.env
	tid := s.txn.id
	n := 0
	newVals := p.newVersion(tbl)
	for _, r := range matched {
		e.row = r.Values
		copy(newVals, r.Values)
		for i, fn := range p.items {
			v, err := fn(e)
			if err != nil {
				return nil, err
			}
			newVals[p.sets[i]] = v
		}
		// An update is a claim of the old version plus an insert of the
		// new one. If the insert fails (constraint, coercion), release
		// the claim immediately: inside an explicit transaction the
		// statement's earlier row updates survive, and a dangling claim
		// would silently become a delete at commit.
		if err := tbl.claimRow(r, tid); err != nil {
			return nil, err
		}
		nr, err := tbl.insertVersion(newVals, tid)
		if err != nil {
			tbl.unclaimRow(r, tid)
			return nil, err
		}
		s.txn.ws = append(s.txn.ws,
			wsEntry{t: tbl, r: r, kind: wsClaim},
			wsEntry{t: tbl, r: nr, kind: wsInsert})
		n++
	}
	s.db.rowsWritten.Add(int64(n))
	return &Result{RowsAffected: n}, nil
}

func (s *Session) execDelete(t *DeleteStmt, slot *stmtSlot, base *env) (*Result, error) {
	p, err := s.lend(slot, t, base)
	if err != nil {
		return nil, err
	}
	defer slot.put(p)
	matched, err := p.matchRows()
	if err != nil {
		return nil, err
	}
	tbl, tid := p.srcs[0].tbl, s.txn.id
	for _, r := range matched {
		if err := tbl.claimRow(r, tid); err != nil {
			return nil, err
		}
		s.txn.ws = append(s.txn.ws, wsEntry{t: tbl, r: r, kind: wsClaim})
	}
	s.db.rowsWritten.Add(int64(len(matched)))
	return &Result{RowsAffected: len(matched)}, nil
}

// planRows plans UPDATE/DELETE's read of one table as a one-source
// plan: the SELECT pipeline's conjunct split, compiled predicates and
// index choice, with UPDATE's SET values compiled over the table's row as
// its items.
func (s *Session) planRows(table string, where Expr, sets []SetClause, outer *env, tree *planTree) (*selectPlan, error) {
	tbl, err := s.db.table(table)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{s: s, tree: tree, env: env{cols: tableColMeta(tbl, ""), params: outer.params, session: s}}
	if tree != nil {
		tree.plans = append(tree.plans, p)
		tree.stamp(tbl)
	}
	p.sets = make([]int, len(sets))
	for i, sc := range sets {
		if p.sets[i] = tbl.ColumnIndex(sc.Column); p.sets[i] < 0 {
			return nil, fmt.Errorf("sqldb: no column %s in table %s", sc.Column, table)
		}
	}
	p.srcs = []source{{name: tbl.Name, tbl: tbl, stream: true, width: len(tbl.Columns)}}
	c := newCompiler(&p.env, tree)
	c.srcs = p.srcs
	p.planWhere(&c, where)
	p.items = make([]evalFn, len(sets))
	for i, sc := range sets {
		p.items[i] = c.compile(sc.Value)
	}
	return p, c.err
}

// matchRows returns the visible row versions of a planRows plan's table
// that pass its WHERE: UPDATE and DELETE want versions, not values. They
// are collected in the source's probe buffer (in place, after a probe).
func (p *selectPlan) matchRows() ([]*Row, error) {
	src, e := &p.srcs[0], &p.env
	defer p.countRows()
	cands := p.candidates(src)
	matched := src.probe[:0]
	for _, r := range cands {
		if !p.s.rowVisible(r) {
			continue
		}
		p.nread++
		e.row = r.Values
		if ok, err := allTrue(src.filter, e); err != nil {
			return nil, err
		} else if ok {
			matched = append(matched, r)
		}
	}
	src.probe = matched
	return matched, nil
}

func (s *Session) execCall(t *CallStmt) (*Result, error) {
	proc, ok := s.db.procs[strings.ToLower(t.Name)]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such procedure %s", t.Name)
	}
	if proc.Native != nil {
		// Native procedures run on a child session: it shares this
		// statement's transaction (so the procedure's effects roll back
		// with the CALL) but is permanently marked re-entrant, routing
		// any SQL the procedure issues through the nested path instead
		// of deadlocking on the session/engine locks.
		child := &Session{db: s.db, id: s.id, applier: s.applier, txn: s.txn, snap: s.snap, locked: true, sink: s.sink}
		res, err := proc.Native(child)
		// Fold the child's accounting into the enclosing CALL statement.
		s.rowsScanned += child.rowsScanned
		if s.planTable == "" {
			s.planTable, s.planIndex = child.planTable, child.planIndex
		}
		return res, err
	}
	var last *Result
	for i, st := range proc.Body {
		r, err := s.execStmtLocked(st, &proc.slots[i], nil, nil)
		if err != nil {
			return nil, fmt.Errorf("sqldb: procedure %s: %w", proc.Name, err)
		}
		if r.IsQuery() {
			last = r
		}
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

func tableColMeta(tbl *Table, qualifier string) []colMeta {
	if qualifier == "" {
		qualifier = tbl.Name
	}
	q := strings.ToLower(qualifier)
	cols := make([]colMeta, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = colMeta{table: q, name: c.Name}
	}
	return cols
}
