// Package journal implements a durable, append-only, checksummed
// write-ahead log of workflow instance lifecycle records, plus the
// recovery state machine that rebuilds in-flight instances from it.
//
// The paper's Table I singles out persistent process state as the
// defining robustness trait of long-running workflows: BIS's navigator
// persists instance state in its runtime database so processes survive
// middleware failure. This package plays the role of that runtime
// database for all three product layers. Every effectful step an
// instance takes (invoke, SQL, transaction boundary, compensation,
// dead-letter) is journaled *with its result* before the
// instance proceeds, so that after a crash the recovery manager can
// replay completed activities from their memoized results -- without
// re-executing their side effects -- and resume execution at the first
// un-journaled activity.
//
// The journal is a single file of length- and CRC32-framed JSON
// records. Torn tails (a partial record written at the moment of the
// crash) are detected by the checksum and discarded; recovery stops
// cleanly at the last valid record.
//
// The package deliberately depends only on the standard library so
// every layer of the system (engine, product stacks, resilience, CLI)
// can import it without cycles.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Kind identifies the type of a journal record.
type Kind string

// Record kinds. The set mirrors the instance lifecycle: creation,
// per-effect completion (with memoized results), product-layer
// transaction boundaries, compensation, dead-lettering, and completion.
// Checkpoint records carry a full state snapshot so recovery need not
// scan from the beginning of time; deploy records are an audit trail;
// activity-start is read (and folded to nothing) but no longer written.
const (
	KindDeploy            Kind = "deploy"
	KindInstanceCreated   Kind = "instance-created"
	KindActivityStart     Kind = "activity-start"
	KindActivityComplete  Kind = "activity-complete"
	KindTxnBegin          Kind = "txn-begin"
	KindTxnCommit         Kind = "txn-commit"
	KindTxnRollback       Kind = "txn-rollback"
	KindCompensation      Kind = "compensation"
	KindDeadLetter        Kind = "dead-letter"
	KindDeadLetterRequeue Kind = "dead-letter-requeue"
	KindInstanceComplete  Kind = "instance-complete"
	KindCheckpoint        Kind = "checkpoint"

	// KindSQLEffect is the CDC record: one committed mutating SQL
	// statement (text + encoded parameters + originating session), in
	// database execution order. It is not lifecycle state — replay
	// ignores it — but a tailer can stream it into a sqldb read
	// replica (see internal/replica) the way a change-data-capture
	// pipeline feeds an analytic store.
	KindSQLEffect Kind = "sql-effect"
)

// Effect kinds recorded on activity-complete records. SQL effects are
// transaction-scoped: while the instance has an open product-layer
// transaction their memos are *pending* and only become durable when
// the COMMIT is journaled (KindTxnCommit). Invoke effects hit external
// services whose side effects cannot be rolled back, so their memos
// are durable immediately.
const (
	EffectSQL    = "sql"
	EffectInvoke = "invoke"
	EffectStep   = "step"
)

// Record is one journal entry. JSON field names are terse because a
// busy instance writes one record per effectful activity.
type Record struct {
	Kind       Kind              `json:"k"`
	Instance   int64             `json:"i,omitempty"`
	Process    string            `json:"p,omitempty"`
	Activity   string            `json:"a,omitempty"`
	Occurrence int               `json:"n,omitempty"`
	EffectKind string            `json:"e,omitempty"`
	Data       map[string]string `json:"d,omitempty"`
	Checkpoint *State            `json:"s,omitempty"`
	Time       time.Time         `json:"t,omitempty"`

	// Epoch is the fencing epoch of the writer that appended the
	// record (see Recorder.SetEpoch). Epochs are monotone across
	// takeovers: a standby promotes with the lease's next epoch, so a
	// record stream whose epoch ever *decreases* is the signature of a
	// split brain. Zero for journals written before failover existed
	// (and for recorders that never join a lease).
	Epoch int64 `json:"ep,omitempty"`
}

// Framing: each record is [uint32 payload length][uint32 CRC32-IEEE of
// payload][payload JSON]. Little-endian, to match the typical WAL
// idiom. maxRecordLen guards against interpreting garbage as an
// enormous length and allocating accordingly.
const (
	frameHeaderLen = 8
	maxRecordLen   = 64 << 20 // 64 MiB; a record is normally < 4 KiB
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// Marshal frames a record for appending to the log.
func Marshal(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeaderLen:], payload)
	return buf, nil
}

// ScanResult reports what a Scan found.
type ScanResult struct {
	// Records is every valid record, in order.
	Records []Record
	// ValidLen is the byte offset just past the last valid record.
	// Anything beyond it is a torn tail and should be truncated
	// before appending new records.
	ValidLen int64
	// Torn is true if the log ended with a partial or corrupt record
	// (the normal signature of a crash mid-write).
	Torn bool
	// TornReason describes why scanning stopped early.
	TornReason string
}

// Scan reads framed records from r until EOF or the first invalid
// frame. A short header, short payload, absurd length, or checksum
// mismatch all terminate the scan *cleanly*: everything up to that
// point is returned as valid, and Torn is set so the caller can
// truncate the tail. Scan never returns an error for torn data --
// only for I/O errors other than EOF.
//
// Scan is the whole-stream convenience over the incremental
// FrameReader: ValidLen is exactly the reader's final Offset, so a
// caller holding a live file can keep decoding from there later (the
// live-tail protocol in Tailer does precisely that).
func Scan(r io.Reader) (*ScanResult, error) {
	res := &ScanResult{}
	fr := NewFrameReader(r)
	for {
		rec, err := fr.Next()
		res.ValidLen = fr.Offset()
		switch {
		case err == nil:
			res.Records = append(res.Records, *rec)
		case err == io.EOF:
			return res, nil // clean end
		case IsTorn(err):
			res.Torn = true
			res.TornReason = err.(*TornError).Reason
			return res, nil
		default:
			return res, fmt.Errorf("journal: scan: %w", err)
		}
	}
}
