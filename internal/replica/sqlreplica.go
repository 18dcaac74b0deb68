package replica

import (
	"fmt"
	"sync/atomic"

	"wfsql/internal/journal"
	"wfsql/internal/sqldb"
)

// This file is the sqldb half of replication: CaptureSQL journals the
// primary database's change stream as KindSQLEffect WAL records, and
// SQLReplica replays those records onto a read-only replica database
// for query/reporting offload.
//
// Staleness contract: a SQL-effect record becomes visible to the
// replica once it is (a) written to the WAL — SQL effects are not
// commit-critical, so they ride the recorder's sync batch — and (b)
// picked up by the standby's next CatchUp poll. The replica's staleness
// bound is therefore one sync-batch flush plus one poll interval; the
// replica.lag_records and replica.lag_ms gauges report the observed
// value. Reads on the replica see a prefix of the primary's change
// stream — never a permutation — because capture happens inside the
// primary engine's commit critical section while the emitting
// statement still holds its table latches (sink order is per-table
// execution order and sequence numbers are dense), and WAL framing
// preserves append order end to end.

// CaptureStats counts capture failures for one CaptureSQL attachment.
type CaptureStats struct{ dropped atomic.Int64 }

// Dropped reports changes that executed on the primary but never
// reached the WAL for a reason OTHER than fencing (disk full, I/O
// error, closed recorder). Each one is a hole the replica cannot fill:
// the applier's sequence-density check will force a re-bootstrap when
// the hole streams past it, and this counter (with the
// replica.capture_drops metric) is the primary-side alarm.
func (s *CaptureStats) Dropped() int64 { return s.dropped.Load() }

// CaptureSQL wires a database's change stream into the journal: every
// successful top-level mutating statement on db is appended to rec as a
// KindSQLEffect record, making the WAL the single replication channel
// for both workflow lifecycle and SQL state. Pass a nil recorder to
// stop capturing (the returned stats are nil then).
//
// The sink runs inside the database's commit critical section, so the
// append must not re-enter the database — it does not. Append failures
// split two ways:
//
//   - Fencing refusals are deliberately swallowed: a fenced primary's
//     changes are no longer authoritative, and the refusal is already
//     counted by Recorder.FencedWrites and the replica.fenced_writes
//     metric.
//   - Any other failure (disk full, I/O error, closed recorder) means a
//     live primary's change was lost: it is counted in the returned
//     CaptureStats and the replica.capture_drops metric, and the
//     resulting sequence gap makes the downstream Applier latch
//     ErrDiverged rather than silently serve stale data.
func CaptureSQL(db *sqldb.DB, rec *journal.Recorder) *CaptureStats {
	if rec == nil {
		db.SetChangeSink(nil)
		return nil
	}
	stats := &CaptureStats{}
	db.SetChangeSink(func(c sqldb.Change) {
		e := journal.SQLEffectRecord{
			Seq:     c.Seq,
			Session: c.Session,
			Kind:    c.Kind,
			SQL:     c.SQL,
		}
		if len(c.Params) > 0 {
			e.Params = make([]string, len(c.Params))
			for i, p := range c.Params {
				e.Params[i] = sqldb.EncodeValue(p)
			}
		}
		if err := rec.SQLEffect(e); err != nil && !journal.IsFenced(err) {
			stats.dropped.Add(1)
			rec.Observability().M().Counter("replica.capture_drops").Inc()
		}
	})
	return stats
}

// SQLReplica replays the journal's SQL-effect stream onto a read-only
// replica database. Wire its ApplyEffect into Standby.OnSQLEffect and
// every CatchUp advances the replica in lock-step with the standby.
type SQLReplica struct {
	db *sqldb.DB
	ap *sqldb.Applier
}

// NewSQLReplica wraps an existing database as a replica starting at the
// given bootstrap floor (see sqldb.DB.BootstrapState; 0 replays the
// stream from its beginning). The database is switched to read-only
// replica mode: application sessions get ErrReadOnly on mutation, only
// the replication applier writes.
func NewSQLReplica(db *sqldb.DB, floor int64) *SQLReplica {
	db.SetReadOnly(true)
	return &SQLReplica{db: db, ap: sqldb.NewApplier(db, floor)}
}

// BootstrapSQLReplica builds a replica of primary from a consistent
// bootstrap point (sqldb.DB.BootstrapState): the committed-only dump
// script seeds a fresh database, the paired sequence number becomes the
// applier floor (changes already reflected in the dump are skipped
// rather than double-applied), and the pending statements of
// transactions still open at the floor are primed so their eventual
// COMMIT or ROLLBACK replays cleanly instead of diverging.
func BootstrapSQLReplica(primary *sqldb.DB, name string) (*SQLReplica, error) {
	script, seq, pending := primary.BootstrapState()
	db := sqldb.Open(name)
	if _, err := db.ExecScript(script); err != nil {
		return nil, fmt.Errorf("replica: bootstrap from dump: %w", err)
	}
	r := NewSQLReplica(db, seq)
	if err := r.ap.Prime(pending); err != nil {
		return nil, fmt.Errorf("replica: prime open transactions: %w", err)
	}
	return r, nil
}

// ApplyEffect replays one decoded SQL-effect record. Malformed encoded
// parameters are an error (the stream is corrupt, not just stale).
func (r *SQLReplica) ApplyEffect(e journal.SQLEffectRecord) error {
	c := sqldb.Change{Seq: e.Seq, Session: e.Session, Kind: e.Kind, SQL: e.SQL}
	if len(e.Params) > 0 {
		c.Params = make([]sqldb.Value, len(e.Params))
		for i, p := range e.Params {
			v, err := sqldb.DecodeValue(p)
			if err != nil {
				return fmt.Errorf("replica: effect seq %d param %d: %w", e.Seq, i, err)
			}
			c.Params[i] = v
		}
	}
	return r.ap.Apply(c)
}

// DB returns the replica database (for read/reporting sessions).
func (r *SQLReplica) DB() *sqldb.DB { return r.db }

// Applied reports how many changes the replica has replayed.
func (r *SQLReplica) Applied() int64 { return r.ap.Applied() }

// Skipped reports changes skipped below the bootstrap floor (plus
// orphaned transaction tails straddling it).
func (r *SQLReplica) Skipped() int64 { return r.ap.Skipped() }

// OpenTransactions reports origin transactions currently open on the
// replica.
func (r *SQLReplica) OpenTransactions() int { return r.ap.OpenTransactions() }

// Complete verifies stream completeness against the standby that fed
// this replica: if the tailer skipped whole WAL segments, SQL-effect
// records are gone for good and the replica must be re-bootstrapped
// from a fresh dump. Lifecycle state self-heals (checkpoints carry full
// snapshots); SQL effects do not. A divergence the applier itself
// latched (sequence gap, straddled-transaction rollback) is reported
// the same way.
func (r *SQLReplica) Complete(s *Standby) error {
	if n := s.SkippedSegments(); n > 0 {
		return fmt.Errorf("replica: %d WAL segment(s) rotated away un-tailed; re-bootstrap required", n)
	}
	if n := s.BadSQLEffects(); n > 0 {
		return fmt.Errorf("replica: %d malformed SQL-effect record(s) skipped; re-bootstrap required", n)
	}
	if err := r.ap.Fatal(); err != nil {
		return err
	}
	return nil
}

// Fatal returns the applier's latched divergence error (nil while the
// replica is converging). See sqldb.ErrDiverged.
func (r *SQLReplica) Fatal() error { return r.ap.Fatal() }

// Promote releases the replica for direct writes after a takeover:
// orphaned transactions (origin sessions that died mid-transaction) are
// rolled back and read-only mode is lifted. Returns how many orphans
// were aborted.
func (r *SQLReplica) Promote() int {
	n := r.ap.AbortOpen()
	r.db.SetReadOnly(false)
	return n
}
