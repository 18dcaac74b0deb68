package sqldb

import (
	"errors"
	"math"
	"slices"
	"strings"
	"time"
)

// This file is the multi-version concurrency-control core: version
// stamps and visibility, the write-conflict error, the statement
// footprint walker that drives per-table latching, commit/rollback
// stamping, and the active-snapshot registry that gates vacuum.
//
// Version-stamp format (Row.xmin / Row.xmax, both atomic):
//
//	xmin == 0            row committed before the stream began (DDL
//	                     backfill, bootstrap scripts) — visible to every
//	                     snapshot
//	xmin > 0             commit sequence the creating transaction
//	                     committed at
//	xmin < 0             created by open transaction -xmin (uncommitted)
//	xmin == abortedStamp the creating transaction rolled back; the
//	                     version is dead forever and waits for vacuum
//	xmax == 0            live (not deleted)
//	xmax < 0             claimed (deleted or superseded by an UPDATE) by
//	                     open transaction -xmax — the MVCC write lock
//	xmax > 0             commit sequence the deleting transaction
//	                     committed at
//
// A claim doubles as the row-level write lock: writers set xmax to
// -txnID under the table's exclusive latch, so at most one transaction
// ever holds a claim, and a second writer hitting a claimed (or
// committed-after-snapshot) version fails first-writer-wins with
// ErrWriteConflict.

// abortedStamp marks a version whose creating transaction rolled back:
// "created in the unreachable future", invisible to every snapshot.
const abortedStamp = math.MaxInt64

// ErrWriteConflict is wrapped by the error a mutating statement returns
// when it loses a first-writer-wins race: the row it targeted is
// claimed by another open transaction or was modified by a transaction
// that committed after this statement's snapshot. The condition is
// transient — the wrapper carries Temporary() == true, so resilience
// retry policies back off and re-run the statement (which takes a fresh
// snapshot and sees the winner's committed state).
var ErrWriteConflict = errors.New("sqldb: write conflict (first writer wins)")

// writeConflictError carries the contended table and a retryable
// classification.
type writeConflictError struct{ table string }

func (e *writeConflictError) Error() string {
	return ErrWriteConflict.Error() + " on table " + e.table
}
func (e *writeConflictError) Unwrap() error   { return ErrWriteConflict }
func (e *writeConflictError) Temporary() bool { return true }

// visibleAt reports whether a row version is visible to a statement
// whose snapshot is snap and whose transaction id is txnID (0 when the
// reader holds no transaction). The rules are standard snapshot
// isolation: a version is visible iff it was created by a transaction
// that committed at or before the snapshot (or by the reader's own open
// transaction) and not deleted by such a transaction.
func visibleAt(r *Row, snap, txnID int64) bool {
	xmin := r.xmin.Load()
	switch {
	case xmin == abortedStamp:
		return false
	case xmin < 0:
		if txnID == 0 || -xmin != txnID {
			return false // someone else's uncommitted insert
		}
	case xmin > snap:
		return false // committed after the snapshot was taken
	}
	xmax := r.xmax.Load()
	switch {
	case xmax == 0:
		return true
	case xmax < 0:
		// Claimed: deleted only from the claimant's point of view.
		return txnID == 0 || -xmax != txnID
	default:
		return xmax > snap // deleted, but after our snapshot → still ours
	}
}

// rowVisible applies the session's current snapshot and transaction to
// visibleAt.
func (s *Session) rowVisible(r *Row) bool {
	var t int64
	if s.txn != nil {
		t = s.txn.id
	}
	return visibleAt(r, s.snap, t)
}

// --- write set ------------------------------------------------------------

type wsKind uint8

const (
	wsInsert wsKind = iota // version created by this transaction
	wsClaim                // version claimed (deleted/superseded)
)

type wsEntry struct {
	t    *Table
	r    *Row
	kind wsKind
}

// txn is an in-flight transaction: a write set of version stamps to
// resolve at commit (stamp with the commit sequence) or rollback (mark
// inserts aborted, release claims). There is no undo log — rollback
// discards versions instead of restoring copies.
type txn struct {
	id int64
	ws []wsEntry

	// explicit distinguishes BEGIN...COMMIT transactions from the
	// statement-local ones wrapped around autocommit statements; only
	// explicit transactions buffer their changes for bootstrap priming.
	explicit bool

	// aborted is set when the transaction was rolled back through a
	// child session (native procedures calling Rollback): the enclosing
	// statement must not stamp-commit an already-released write set.
	aborted bool
}

// stampCommit resolves the write set as committed at the next commit
// sequence and publishes that sequence. The caller holds commitMu and
// the write set's table latches; readers that observe the new commit
// sequence are guaranteed (sequentially consistent atomics) to observe
// every stamp stored before it.
func (db *DB) stampCommit(tx *txn) {
	if tx == nil || tx.aborted || len(tx.ws) == 0 {
		return
	}
	c := db.commitSeq.Load() + 1
	for _, w := range tx.ws {
		switch w.kind {
		case wsInsert:
			w.r.xmin.Store(c)
		case wsClaim:
			w.r.xmax.Store(c)
			w.t.live.Add(-1)
			w.t.dead.Add(1)
		}
	}
	db.commitSeq.Store(c)
	// A procedure body's COMMIT can resolve the write set mid-statement;
	// emptying it makes the statement-finalize stamp a no-op instead of
	// a re-stamp, and leaves the session's reused txn holding no row.
	tx.ws = idleBuf(tx.ws)
}

// rollbackStamps releases the write set: created versions become
// aborted (dead, awaiting vacuum), claims are released so the claimed
// rows are writable again. The caller holds the write set's table
// latches (or the exclusive engine lock).
func rollbackStamps(tx *txn) {
	if tx == nil || tx.aborted {
		return
	}
	for i := len(tx.ws) - 1; i >= 0; i-- {
		w := tx.ws[i]
		switch w.kind {
		case wsInsert:
			if w.r.xmin.Load() != abortedStamp {
				w.r.xmin.Store(abortedStamp)
				w.t.live.Add(-1)
				w.t.dead.Add(1)
			}
		case wsClaim:
			if w.r.xmax.Load() == -tx.id {
				w.r.xmax.Store(0)
			}
		}
	}
	tx.aborted, tx.ws = true, idleBuf(tx.ws)
}

// --- active-snapshot registry ---------------------------------------------

// acquireSnapshot registers a statement's snapshot so vacuum never
// removes a version some in-flight statement can still see.
func (db *DB) acquireSnapshot() int64 {
	db.snapMu.Lock()
	s := db.commitSeq.Load()
	if db.snapActive == nil {
		db.snapActive = map[int64]int{}
	}
	db.snapActive[s]++
	db.snapMu.Unlock()
	return s
}

func (db *DB) releaseSnapshot(s int64) {
	db.snapMu.Lock()
	if n := db.snapActive[s]; n <= 1 {
		delete(db.snapActive, s)
	} else {
		db.snapActive[s] = n - 1
	}
	db.snapMu.Unlock()
}

// minActiveSnapshot returns the oldest snapshot any in-flight statement
// holds (or the current commit sequence when none is active): versions
// dead at or before it are invisible to every present and future
// reader, hence vacuumable.
func (db *DB) minActiveSnapshot() int64 {
	db.snapMu.Lock()
	min := db.commitSeq.Load()
	for s := range db.snapActive {
		if s < min {
			min = s
		}
	}
	db.snapMu.Unlock()
	return min
}

// --- statement footprint ---------------------------------------------------

// latchTarget is one table of a statement's static footprint, resolved
// and ordered for acquisition.
type latchTarget struct {
	t     *Table
	write bool
}

// stmtRefs walks a query or DML statement syntactically and records
// every table name it references, split into mutation targets
// (write) and everything else (read). It needs no database state, so the
// result is cacheable alongside the parsed AST: the executor derives its
// latch footprint from it (stmtFootprint, which routes CALL through
// callFootprint and gives DDL the exclusive lock instead).
func stmtRefs(st Stmt, write, read map[string]bool) {
	name := func(m map[string]bool, n string) {
		if n != "" {
			m[strings.ToLower(n)] = true
		}
	}
	switch t := st.(type) {
	case *SelectStmt:
		selectRefs(t, read)
	case *ExplainStmt:
		selectRefs(t.Query, read)
	case *InsertStmt:
		name(write, t.Table)
		if t.Query != nil {
			selectRefs(t.Query, read)
		}
	case *UpdateStmt:
		name(write, t.Table)
	case *DeleteStmt:
		name(write, t.Table)
	}
}

// selectRefs records the tables of a query's FROM and joins: expressions
// name no table.
func selectRefs(q *SelectStmt, read map[string]bool) {
	for _, from := range q.From {
		read[strings.ToLower(from.Table)] = true
	}
}

// fpName is one entry of a cached statement footprint: a lowercased
// object name and whether the statement mutates it. Names are resolved
// against db.tables at every execution (tables come and go), so the
// cached list stays valid across table DDL; only procedure changes alter
// the *expansion* and therefore invalidate the cache.
type fpName struct {
	name  string
	write bool
}

// fpEntry is one generation of a statement's computed footprint.
type fpEntry struct {
	gen   int64 // db.footGen value the expansion was computed under
	ok    bool  // false: statement needs the exclusive engine lock
	names []fpName
}

// resolveFootprint appends to fp the latch targets of a footprint name
// list against the current table set. The caller holds db.mu.
func (db *DB) resolveFootprint(fp []latchTarget, names []fpName) []latchTarget {
	for _, n := range names {
		if t := db.tables[n.name]; t != nil {
			fp = append(fp, latchTarget{t: t, write: n.write})
		}
	}
	return fp
}

// stmtFootprint appends to fp (empty; the session's latch buffer) the
// latch set of a mutating statement: write latches on the tables it
// mutates, read latches on every other table it references (directly or
// through SQL procedure bodies). ok is false when the
// footprint cannot be computed statically — native procedures, DDL, and
// unknown statement shapes — and the caller must fall back to the
// exclusive engine lock. COMMIT and ROLLBACK latch the open
// transaction's write set; BEGIN latches nothing. The caller holds db.mu
// (shared suffices: only schema stability is needed).
//
// slot, when non-nil, caches the computed name list across executions of
// the same AST; it is invalidated by footGen (bumped on procedure
// changes — the only DDL that alters the expansion, since table names
// re-resolve on every call). Racing recomputations are benign: all
// compute the same value for a generation, and the last store wins.
func (db *DB) stmtFootprint(fp []latchTarget, st Stmt, tx *txn, slot *stmtSlot) ([]latchTarget, bool) {
	switch st.(type) {
	case *BeginStmt:
		return fp, true
	case *CommitStmt, *RollbackStmt:
		// Transaction-dependent, never cached: the distinct tables of the
		// open write set still in the database (tx is nil when the
		// statement is about to fail), in lowercased-name order.
		if tx != nil {
			for _, w := range tx.ws {
				if !slices.ContainsFunc(fp, func(lt latchTarget) bool { return lt.t == w.t }) && db.tables[w.t.key] == w.t {
					fp = append(fp, latchTarget{t: w.t, write: true})
				}
			}
		}
		slices.SortFunc(fp, func(a, b latchTarget) int { return strings.Compare(a.t.key, b.t.key) })
		return fp, true
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *CallStmt:
	default:
		return fp, false // DDL and unknown shapes: exclusive lock
	}
	gen := db.footGen.Load()
	if slot != nil {
		if e := slot.fp.Load(); e != nil && e.gen == gen {
			if !e.ok {
				return fp, false
			}
			return db.resolveFootprint(fp, e.names), true
		}
	}
	write := map[string]bool{}
	read := map[string]bool{}
	computed := true
	if c, isCall := st.(*CallStmt); isCall {
		computed = db.callFootprint(c, write, read, map[string]bool{})
	} else {
		stmtRefs(st, write, read)
	}
	var names []fpName
	if computed {
		names = footprintNames(write, read)
	}
	if slot != nil {
		slot.fp.Store(&fpEntry{gen: gen, ok: computed, names: names})
	}
	if !computed {
		return fp, false
	}
	return db.resolveFootprint(fp, names), true
}

// footprintNames flattens the write/read sets into the sorted name list
// latches are acquired in — the single global ordering rule.
func footprintNames(write, read map[string]bool) []fpName {
	names := make([]fpName, 0, len(write)+len(read))
	for n := range write {
		names = append(names, fpName{name: n, write: true})
	}
	for n := range read {
		if !write[n] {
			names = append(names, fpName{name: n})
		}
	}
	slices.SortFunc(names, func(a, b fpName) int { return strings.Compare(a.name, b.name) })
	return names
}

// callFootprint folds a CALL's footprint: the procedure body (SQL
// procedures only — native bodies are opaque, so the CALL falls back to
// the exclusive lock). seen breaks CALL cycles.
func (db *DB) callFootprint(c *CallStmt, write, read map[string]bool, seen map[string]bool) bool {
	lc := strings.ToLower(c.Name)
	if seen[lc] {
		return true
	}
	seen[lc] = true
	proc, ok := db.procs[lc]
	if !ok {
		return true // missing procedure: the statement will fail cleanly
	}
	if proc.Native != nil {
		return false
	}
	for _, st := range proc.Body {
		switch b := st.(type) {
		case *CallStmt:
			if !db.callFootprint(b, write, read, seen) {
				return false
			}
		case *SelectStmt, *ExplainStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
			stmtRefs(st, write, read)
		case *BeginStmt, *CommitStmt, *RollbackStmt:
			// Body transaction statements fail inside a CALL; no footprint.
		default:
			return false // DDL inside a procedure body: exclusive lock
		}
	}
	return true
}

// latchWaitFloor separates blocking (the holder made us park) from the
// bare cost of an uncontended mutex acquisition (tens of ns). Waits
// under the floor are not attributed — they are acquisition overhead,
// not contention — which keeps the per-table lock-wait histograms
// silent on uncontended workloads.
const latchWaitFloor = time.Microsecond

// acquireLatches locks the footprint's tables in sorted-name order —
// the single global ordering rule that makes per-table latching
// deadlock-free. When record is set, per-table waits at or above
// latchWaitFloor are returned (nil when nothing blocked — the common,
// allocation-free case).
func acquireLatches(fp []latchTarget, record bool) map[string]time.Duration {
	var waits map[string]time.Duration
	for _, lt := range fp {
		// Uncontended fast path: TryLock succeeds without blocking, so
		// there is no wait to attribute and no clock to read.
		if lt.write {
			if lt.t.latch.TryLock() {
				continue
			}
		} else if lt.t.latch.TryRLock() {
			continue
		}
		start := time.Now()
		if lt.write {
			lt.t.latch.Lock()
		} else {
			lt.t.latch.RLock()
		}
		if w := time.Since(start); w >= latchWaitFloor && record {
			if waits == nil {
				waits = make(map[string]time.Duration, len(fp))
			}
			waits[lt.t.Name] += w
		}
	}
	return waits
}

func releaseLatches(fp []latchTarget) {
	for i := len(fp) - 1; i >= 0; i-- {
		if fp[i].write {
			fp[i].t.latch.Unlock()
		} else {
			fp[i].t.latch.RUnlock()
		}
	}
}

// --- conflict retry --------------------------------------------------------

// Conflict-retry policy for autocommit statements: a statement that
// loses first-writer-wins is transparently retried against a fresh
// snapshot with exponential backoff before the error is surfaced.
// Statements inside an explicit transaction are not retried — the
// transaction's earlier statements saw older snapshots, so the caller
// (the resilience layer) must decide whether to retry the transaction.
const (
	conflictRetryLimit   = 8
	conflictBackoffBase  = 20 * time.Microsecond
	conflictBackoffLimit = 2 * time.Millisecond
)

func conflictBackoff(attempt int) time.Duration {
	d := conflictBackoffBase << uint(attempt)
	if d > conflictBackoffLimit {
		d = conflictBackoffLimit
	}
	return d
}

// isWriteConflict reports whether err is (or wraps) a first-writer-wins
// conflict, returning the contended table when known.
func isWriteConflict(err error) (string, bool) {
	var wc *writeConflictError
	if errors.As(err, &wc) {
		return wc.table, true
	}
	return "", errors.Is(err, ErrWriteConflict)
}
