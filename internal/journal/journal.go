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
// The journal is a single file of length- and CRC32-framed records:
// binary tuples for everything an instance writes as it runs, JSON for
// checkpoints (and for every record of a journal written before the
// binary encoding existed, which still reads). Torn tails (a partial
// record written at the moment of the crash) are detected by the
// checksum and discarded; recovery stops cleanly at the last valid
// record.
//
// The package deliberately depends only on the standard library so
// every layer of the system (engine, product stacks, resilience, CLI)
// can import it without cycles.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"
)

// Kind identifies the type of a journal record.
type Kind string

// Record kinds. The set mirrors the instance lifecycle: creation,
// per-effect completion (with memoized results), product-layer
// transaction boundaries, dead-lettering, and completion. Checkpoint
// records carry a full state snapshot so recovery need not scan from
// the beginning of time; deploy, activity-start and compensation are
// read (and folded to nothing) but no host writes them any more.
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
)

// Record is one journal entry: a flat tuple of kind, instance, activity,
// occurrence and key/value data. The JSON tags are the encoding of
// checkpoint records and of journals written before the binary encoding
// (appendRecord), which is what every other record is written in.
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
// payload][payload], little-endian. A payload is JSON — checkpoints,
// which hold a whole State and are written once per several hundred
// records, and everything in a journal older than the binary encoding —
// or the binary tuple
//
//	0x01 kind instance occurrence epoch seconds nanos process activity
//	effect-kind pair-count (key value)*
//
// with integers as varints (signed ones zigzag), strings length-prefixed,
// the time as Unix seconds and nanoseconds (read back in UTC) and the
// data pairs in key order, so that equal records give equal bytes. JSON
// starts with '{': the first payload byte is the whole format switch.
// maxRecordLen guards against interpreting garbage as an enormous length.
const (
	frameHeaderLen = 8
	maxRecordLen   = 64 << 20 // 64 MiB; a record is normally < 4 KiB
	binaryRecord   = 0x01
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// kindCodes numbers the kinds for the binary encoding: a kind is written
// as its index here, one this writer does not know as 0 and its name.
// The numbers are file format: append only.
var kindCodes = [...]Kind{"", KindDeploy, KindInstanceCreated, KindActivityStart, KindActivityComplete,
	KindTxnBegin, KindTxnCommit, KindTxnRollback, KindCompensation, KindDeadLetter, KindDeadLetterRequeue,
	KindInstanceComplete, KindCheckpoint, KindSQLEffect}

// kindCode is k's number in kindCodes, 0 for a kind this writer does not
// know.
func kindCode(k Kind) int { return slices.Index(kindCodes[1:], k) + 1 }

// frameEncoder frames records in a buffer it keeps, so a writer that
// holds one allocates nothing per record. The zero value is ready.
type frameEncoder struct {
	buf  []byte
	keys []string // a record's data keys, sorted
}

// frame encodes r as one frame, valid until the next call: binary unless
// r carries a checkpoint.
func (e *frameEncoder) frame(r *Record) ([]byte, error) {
	b := append(e.buf[:0], make([]byte, frameHeaderLen)...)
	if r.Checkpoint != nil {
		payload, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("journal: marshal checkpoint: %w", err)
		}
		b = append(b, payload...)
	} else {
		code := kindCode(r.Kind)
		b = append(b, binaryRecord, byte(code))
		if code == 0 {
			b = appendString(b, string(r.Kind))
		}
		b = binary.AppendVarint(b, r.Instance)
		b = binary.AppendVarint(b, int64(r.Occurrence))
		b = binary.AppendVarint(b, r.Epoch)
		b = binary.AppendVarint(b, r.Time.Unix())
		b = binary.AppendUvarint(b, uint64(r.Time.Nanosecond()))
		b = appendString(b, r.Process)
		b = appendString(b, r.Activity)
		b = appendString(b, r.EffectKind)
		e.keys = e.keys[:0]
		for k := range r.Data {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		b = binary.AppendUvarint(b, uint64(len(e.keys)))
		for _, k := range e.keys {
			b = appendString(appendString(b, k), r.Data[k])
		}
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-frameHeaderLen))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[frameHeaderLen:], crcTable))
	e.buf = b
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

var errMalformed = errors.New("malformed binary record")

// decodeRecord decodes a frame's payload in either encoding. A binary
// payload must be exactly one well-formed tuple, and nothing is allocated
// on a length or count it claims beyond the bytes it has.
func decodeRecord(b []byte) (*Record, error) {
	rec := &Record{}
	if len(b) == 0 || b[0] != binaryRecord {
		return rec, json.Unmarshal(b, rec)
	}
	b = b[1:]
	bad := false
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			bad, n = true, len(b)
		}
		b = b[n:]
		return v
	}
	varint := func() int64 {
		u := uvarint()
		return int64(u>>1) ^ -int64(u&1)
	}
	str := func() string {
		n := uvarint()
		if n > uint64(len(b)) {
			bad, n = true, 0
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	if code := uvarint(); code == 0 {
		rec.Kind = Kind(str())
	} else if code < uint64(len(kindCodes)) {
		rec.Kind = kindCodes[code]
	} else {
		bad = true
	}
	rec.Instance, rec.Occurrence, rec.Epoch = varint(), int(varint()), varint()
	sec, nsec := varint(), uvarint()
	rec.Time = time.Unix(sec, int64(nsec)).UTC()
	rec.Process, rec.Activity, rec.EffectKind = str(), str(), str()
	pairs := uvarint()
	if bad || nsec >= uint64(time.Second) || pairs > uint64(len(b)/2) { // a pair is two length bytes at least
		return nil, errMalformed
	}
	if pairs > 0 {
		rec.Data = make(map[string]string, pairs)
	}
	for ; pairs > 0; pairs-- {
		k := str()
		rec.Data[k] = str()
	}
	if bad || len(b) > 0 {
		return nil, errMalformed
	}
	return rec, nil
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
