package sqldb

import (
	"errors"
	"math"
	"time"
)

// This file is the multi-version concurrency-control core: version
// stamps and visibility, the write-conflict error, commit/rollback
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
// -txnID under the writer lock (or the exclusive engine lock), so at most one transaction
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
// sequence and publishes that sequence. The caller holds the writer
// lock or the exclusive engine lock; readers that observe the new commit
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
// rows are writable again. The caller holds the writer lock or the
// exclusive engine lock.
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
