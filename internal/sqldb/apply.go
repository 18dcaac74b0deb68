package sqldb

import (
	"errors"
	"fmt"
	"strconv"
)

// This file is the replica half of statement-based replication. The
// primary's change stream (SetChangeSink) is a sequence of top-level
// mutating statements in engine execution order, keyed by origin
// session; an Applier replays that stream against a replica database,
// routing each statement onto a dedicated replica session per origin
// session so interleaved transactions (and their rollbacks) replay with
// the same scoping they had on the primary.

// ErrReadOnly is wrapped by the refusal a mutating statement receives
// on a database in replica mode (SetReadOnly).
var ErrReadOnly = errors.New("sqldb: database is read-only (replica mode)")

// ErrDiverged is wrapped by the error an Applier returns once it has
// proof the replica can no longer converge with the primary: a gap in
// the dense change sequence (a captured change never reached the WAL),
// or the resolution (COMMIT/ROLLBACK) of a transaction the replica
// never saw open — a transaction that straddled the bootstrap dump on
// a replica that was not primed with its pending statements
// (BootstrapState / Prime). The condition is permanent and latches —
// every subsequent Apply repeats it — and the only recovery is
// re-bootstrapping the replica from a fresh dump.
var ErrDiverged = errors.New("sqldb: replica diverged from primary change stream; re-bootstrap required")

// divergedError carries the diagnosis and a permanent classification
// (retrying Apply cannot un-diverge a replica).
type divergedError struct{ msg string }

func (e *divergedError) Error() string   { return ErrDiverged.Error() + ": " + e.msg }
func (e *divergedError) Unwrap() error   { return ErrDiverged }
func (e *divergedError) Temporary() bool { return false }

// readOnlyError carries the refused statement kind and a permanent
// classification (retrying cannot make a replica writable).
type readOnlyError struct{ kind string }

func (e *readOnlyError) Error() string {
	return "sqldb: read-only replica refused " + e.kind
}
func (e *readOnlyError) Unwrap() error   { return ErrReadOnly }
func (e *readOnlyError) Temporary() bool { return false }

// Applier replays a change stream onto a replica database. It is not
// safe for concurrent use: the stream is inherently ordered, so a
// single goroutine (the journal tailer's consumer) drives Apply.
type Applier struct {
	db       *DB
	floor    int64 // changes with Seq <= floor predate the bootstrap dump
	sessions map[int64]*Session
	applied  int64
	skipped  int64

	// lastSeq is the newest change sequence number observed (applied or
	// skipped). The primary stamps changes with a dense counter, so any
	// hole means a change was lost between capture and delivery — the
	// replica has silently missed a write and must re-bootstrap.
	lastSeq int64
	// fatal latches the first divergence: once set, every Apply returns
	// it (the stream is redelivered on error, and redelivering past a
	// divergence would only corrupt the replica further).
	fatal error
}

// NewApplier returns an applier targeting db, skipping changes with
// sequence numbers at or below floor (the floor half of the
// BootstrapState bootstrap point; pass 0 when the replica starts from
// the stream's beginning).
func NewApplier(db *DB, floor int64) *Applier {
	return &Applier{db: db, floor: floor, sessions: map[int64]*Session{}}
}

// Prime replays the pending statements of transactions that were open
// at the bootstrap point (the pending half of DB.BootstrapState). The
// committed-only bootstrap dump deliberately excludes those
// transactions' effects, so the replica re-opens them here — BEGIN and
// all — before consuming the live stream; each resolves when its
// COMMIT or ROLLBACK arrives with Seq > floor. Priming does not touch
// the floor-skip accounting: pending changes carry Seq <= floor, and
// the live stream is still consumed from floor+1.
func (a *Applier) Prime(pending []Change) error {
	for _, c := range pending {
		s := a.session(c.Session)
		if _, err := s.Exec(c.SQL, c.Params...); err != nil {
			return fmt.Errorf("sqldb: prime seq %d (%s): %w", c.Seq, c.Kind, err)
		}
		a.applied++
	}
	return nil
}

// session returns (minting if needed) the replica session standing in
// for the given origin session. Applier sessions bypass the read-only
// gate and are never re-captured by a change sink on the replica.
func (a *Applier) session(origin int64) *Session {
	s, ok := a.sessions[origin]
	if !ok {
		s = &Session{db: a.db, id: a.db.sessionIDs.Add(1), applier: true}
		a.sessions[origin] = s
	}
	return s
}

// Apply replays one change. Changes at or below the bootstrap floor
// are skipped (their effects are in the committed-only dump, or were
// re-opened by Prime). Three conditions cannot be papered over and
// are reported as a latching ErrDiverged:
//
//   - A gap in the dense change sequence: a captured change never made
//     it here (journal append failure, pruned WAL segment), so the
//     replica is missing a write with no way to recover it.
//   - A COMMIT or ROLLBACK for a transaction the replica never saw
//     open: the transaction straddled the bootstrap dump and the
//     replica was not primed with its pending statements
//     (DB.BootstrapState / Applier.Prime). The committed-only dump
//     excludes its writes, so a bare COMMIT cannot reproduce them and
//     a bare ROLLBACK has nothing to undo — either way the replica no
//     longer matches the primary.
//   - A BEGIN while the origin session already holds an open
//     transaction (a rollback lost upstream); refused rather than
//     guessed at.
func (a *Applier) Apply(c Change) error {
	if a.fatal != nil {
		return a.fatal
	}
	if c.Seq != 0 {
		if a.lastSeq != 0 && c.Seq != a.lastSeq+1 {
			return a.diverge(fmt.Sprintf("change sequence gap: got seq %d after %d", c.Seq, a.lastSeq))
		}
		if a.lastSeq == 0 && a.floor > 0 && c.Seq > a.floor+1 {
			return a.diverge(fmt.Sprintf("stream starts at seq %d, bootstrap floor %d: changes %d..%d lost",
				c.Seq, a.floor, a.floor+1, c.Seq-1))
		}
		a.lastSeq = c.Seq
	}
	if c.Seq != 0 && c.Seq <= a.floor {
		a.skipped++
		return nil
	}
	s := a.session(c.Session)
	if !s.InTransaction() {
		switch c.Kind {
		case "COMMIT", "ROLLBACK":
			return a.diverge(fmt.Sprintf(
				"seq %d: %s of a transaction straddling the bootstrap floor (%d); replica was not primed with its pending statements",
				c.Seq, c.Kind, a.floor))
		}
	} else if c.Kind == "BEGIN" {
		return a.diverge(fmt.Sprintf(
			"seq %d: BEGIN while origin session %d already holds an open transaction (rollback lost upstream)", c.Seq, c.Session))
	}
	// Exec re-resolves the change text through the replica's own plan
	// cache: a PR 9 primary streams NORMALIZED text with merged
	// parameters, which re-normalizes to itself (the rendering is
	// idempotent, extracting nothing), while legacy journals with inline
	// literals re-extract them here and merge identically.
	if _, err := s.Exec(c.SQL, c.Params...); err != nil {
		return fmt.Errorf("sqldb: apply seq %d (%s): %w", c.Seq, c.Kind, err)
	}
	a.applied++
	return nil
}

// diverge latches and returns a permanent divergence error.
func (a *Applier) diverge(msg string) error {
	a.fatal = &divergedError{msg: msg}
	return a.fatal
}

// Fatal returns the latched divergence error, nil while the replica is
// still converging. Once non-nil the replica must be re-bootstrapped
// from a fresh dump.
func (a *Applier) Fatal() error { return a.fatal }

// AbortOpen rolls back every replica transaction still open — the
// orphans of origin sessions that died mid-transaction (a primary
// crash) or of a stream that ended. Promotion calls this before the
// replica serves queries as the new authority's store.
func (a *Applier) AbortOpen() int {
	n := 0
	for _, s := range a.sessions {
		if s.InTransaction() {
			s.Rollback()
			n++
		}
	}
	return n
}

// Applied reports how many changes have been replayed.
func (a *Applier) Applied() int64 { return a.applied }

// Skipped reports how many changes were skipped (below the bootstrap
// floor or orphaned transaction tails).
func (a *Applier) Skipped() int64 { return a.skipped }

// OpenTransactions reports how many replica sessions currently hold an
// open transaction (in-flight origin transactions).
func (a *Applier) OpenTransactions() int {
	n := 0
	for _, s := range a.sessions {
		if s.InTransaction() {
			n++
		}
	}
	return n
}

// --- value codec ----------------------------------------------------------

// EncodeValue renders a value as a compact, self-describing string for
// transport inside journal records: "n" (NULL), "i:42", "f:1.5",
// "s:text", "b:t"/"b:f". DecodeValue inverts it.
func EncodeValue(v Value) string {
	switch v.K {
	case KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return "s:" + v.S
	case KindBool:
		if v.B() {
			return "b:t"
		}
		return "b:f"
	}
	return "n"
}

// DecodeValue parses an EncodeValue string back into a Value.
func DecodeValue(s string) (Value, error) {
	if s == "n" {
		return Null(), nil
	}
	if len(s) < 2 || s[1] != ':' {
		return Null(), fmt.Errorf("sqldb: malformed encoded value %q", s)
	}
	body := s[2:]
	switch s[0] {
	case 'i':
		i, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("sqldb: malformed int value %q", s)
		}
		return Int(i), nil
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return Null(), fmt.Errorf("sqldb: malformed float value %q", s)
		}
		return Float(f), nil
	case 's':
		return Str(body), nil
	case 'b':
		return Bool(body == "t"), nil
	}
	return Null(), fmt.Errorf("sqldb: unknown value tag %q", s)
}
