package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"wfsql/internal/obsv"
)

// ErrFenced is returned (wrapped) by Append when the recorder's append
// guard refuses the write: the fencing lease's epoch has advanced past
// this writer's, meaning a standby has taken over. A fenced writer must
// stop — its journal is no longer authoritative — and the error is
// deliberately non-temporary so retry policies classify it permanent.
var ErrFenced = errors.New("journal: writer fenced (lease epoch advanced)")

// IsFenced reports whether err is (or wraps) a fencing refusal.
func IsFenced(err error) bool { return errors.Is(err, ErrFenced) }

// AppendGuard vets every record before it is written. It runs under
// the recorder mutex, so a guard that checks a fencing lease gives the
// classic lease guarantee: no record is written after the guard
// observes a newer epoch. Return an error wrapping ErrFenced to fence
// the writer; any other error also refuses the append. The record, stamped,
// may be the recorder's own (typed appends refill it): a guard must not keep it.
type AppendGuard func(rec *Record) error

// CrashPoint identifies where in the effect-then-memo protocol
// (Effects.Run) a simulated crash fires. An effectful activity performs
// two writes, the effect and then the journal append of its memo; the
// three points cover every interleaving a real crash can produce:
//
//	CrashBeforeJournal            -- neither happened; recovery runs the
//	                                 activity.
//	CrashAfterEffectBeforeJournal -- effect performed, memo not
//	                                 journaled: the in-doubt window.
//	                                 Recovery cannot tell it from the
//	                                 point above and repeats this one
//	                                 effect (never loses it).
//	CrashAfterEffect              -- both happened; recovery replays the
//	                                 memo and must NOT repeat the effect.
type CrashPoint int

// Crash points.
const (
	CrashNone CrashPoint = iota
	CrashBeforeJournal
	CrashAfterEffectBeforeJournal
	CrashAfterEffect
)

// String names the crash point.
func (p CrashPoint) String() string {
	switch p {
	case CrashNone:
		return "none"
	case CrashBeforeJournal:
		return "before-journal"
	case CrashAfterEffectBeforeJournal:
		return "after-effect-before-journal"
	case CrashAfterEffect:
		return "after-effect"
	}
	return "unknown"
}

// CrashError is the simulated process death. It deliberately reports
// itself as non-temporary so resilience retry loops classify it as
// permanent and stop immediately: a crashed process does not retry,
// it dies and is later recovered.
type CrashError struct {
	Instance int64
	Activity string
	Point    CrashPoint
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("journal: simulated crash at %s (instance %d, activity %s)", e.Point, e.Instance, e.Activity)
}

// Temporary reports false: crashes are not retryable in-process.
func (e *CrashError) Temporary() bool { return false }

// ErrWriteFailed is returned (wrapped) by Append, Checkpoint and Sync once
// a write to the WAL has failed: the file may end in a partial frame,
// where recovery stops, so a record written behind it would be
// acknowledged and lost. The recorder accepts nothing more, and its host
// is as good as dead — see IsCrash.
var ErrWriteFailed = errors.New("journal: WAL write failed")

// IsCrash reports whether err is (or wraps) a simulated crash, or the
// real thing: a host that has lost its journal must stop the way a dead
// process does, without fault handlers or cleanup, because the journal
// still holds its instances in flight and recovery needs what they left.
func IsCrash(err error) bool {
	if err == nil {
		return false // before errors.As, whose target escapes to the heap
	}
	var ce *CrashError
	return errors.As(err, &ce) || errors.Is(err, ErrWriteFailed)
}

// AsCrash extracts the crash error if present.
func AsCrash(err error) (*CrashError, bool) {
	var ce *CrashError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

// CrashInjector decides whether a given (instance, activity,
// crash-point) check should crash. Installed by the chaos layer.
type CrashInjector func(instance int64, activity string, point CrashPoint) bool

// WALName is the journal file name inside the journal directory.
const WALName = "wal.log"

// DefaultCheckpointEvery is how many appended records trigger an
// automatic checkpoint snapshot.
const DefaultCheckpointEvery = 512

// walFile is the slice of *os.File the recorder needs after Open. Tests
// inject a fake to assert the sync protocol without touching a disk.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// SyncMode selects when the WAL is fsynced.
type SyncMode int

// Sync modes.
const (
	// SyncCritical (the default) fsyncs after commit-critical records:
	// txn-commit, activity-complete memos, checkpoints, dead letters and
	// instance completion. These are the records whose loss breaks
	// exactly-once replay — once an effect's memo is appended, a crash
	// must not lose the memo while the effect's side effect survives.
	SyncCritical SyncMode = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncNever leaves flushing to Close/Sync (tests, throwaway runs).
	SyncNever
)

// String names the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncCritical:
		return "critical"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// SyncPolicy says when appends are fsynced: every record the mode covers
// is synced before Append returns, so an acknowledged commit-critical
// record is durable (the effect-then-memo guarantee).
type SyncPolicy struct {
	Mode SyncMode
}

// criticalKind reports whether losing a record of this kind can break
// exactly-once replay or drop an externally visible promise.
func criticalKind(k Kind) bool {
	switch k {
	case KindTxnCommit, KindActivityComplete, KindCheckpoint,
		KindInstanceComplete, KindDeadLetter:
		return true
	}
	return false
}

// Recorder is the durable journal: an open append-only WAL plus the
// materialized state. It is safe for concurrent use by multiple
// instance goroutines: the worker-pool scheduler interleaves appends
// from all in-flight instances into one WAL, and replay groups them
// back per instance id, so a journal written under parallel execution
// recovers exactly like a serial one.
type Recorder struct {
	mu              sync.Mutex
	f               walFile
	path            string
	state           *State
	appended        int // records since last checkpoint
	checkpointEvery int
	injector        CrashInjector
	closed          bool
	sync            SyncPolicy
	epoch           int64       // fencing epoch stamped on every record
	guard           AppendGuard // pre-write fence check (nil = none)
	fencedWrites    int64       // appends refused by the guard
	syncCount       int64       // fsyncs issued (tests, metrics)
	obs             *obsv.Observability
	enc             frameEncoder // Append's frames; checkpoints do not go through it
	rec             Record       // the typed appends' record, filled and cleared under mu
	writeErr        error        // the first failed write, wrapping ErrWriteFailed; latched

	// obs's per-append handles, looked up at the first append after SetObservability
	// so the registry lists only what happened; per kind by code (0, unnumbered: per append).
	appends     *obsv.Counter
	appendMs    *obsv.Histogram
	kindAppends [len(kindCodes)]*obsv.Counter

	// rotate, when set, makes every checkpoint rewrite the WAL as a
	// fresh segment that starts at the checkpoint (SetRotateAtCheckpoint);
	// rotations counts completed swaps. keepSegments > 0 additionally
	// archives each retiring segment (SetRotateKeep) so lagging tailers
	// can drain it after the rename.
	rotate       bool
	rotations    int64
	keepSegments int
	keepBytes    int64

	// TornTail reports whether Open found (and truncated) a torn
	// tail, and why. For diagnostics and tests.
	TornTail       bool
	TornTailReason string

	// RecoverDuration and RecoveredRecords describe the Open-time scan
	// (replay cost), exported into the metrics registry when
	// observability is attached.
	RecoverDuration  time.Duration
	RecoveredRecords int
}

// Open opens (creating if needed) the journal in dir, scans it,
// truncates any torn tail, and materializes the recovered state.
func Open(dir string) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open dir: %w", err)
	}
	path := filepath.Join(dir, WALName)
	// A crash during a WAL rotation can leave a stale rotation segment
	// (written, maybe synced, never renamed). The un-renamed segment was
	// never published — the old WAL is still authoritative — so it is
	// dead weight: remove it before opening. A crash after the rename
	// needs nothing special; the renamed segment IS the WAL.
	os.Remove(path + rotateSuffix)
	// Retained rotation archives (SetRotateKeep) only serve tailers of
	// the previous incarnation; a tailer attaching after a restart
	// bootstraps from the live WAL's checkpoint instead.
	if stale, _ := filepath.Glob(path + archiveSuffix + "*"); len(stale) > 0 {
		for _, s := range stale {
			os.Remove(s)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open wal: %w", err)
	}
	scanStart := time.Now()
	res, err := Scan(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if res.Torn {
		// Drop the torn tail so new appends start on a frame
		// boundary; everything up to ValidLen is intact.
		if err := f.Truncate(res.ValidLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(res.ValidLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	r := &Recorder{
		f:               f,
		path:            path,
		state:           Replay(res.Records),
		checkpointEvery: DefaultCheckpointEvery,
		sync:            SyncPolicy{Mode: SyncCritical},
		TornTail:        res.Torn,
		TornTailReason:  res.TornReason,
	}
	r.RecoverDuration = time.Since(scanStart)
	r.RecoveredRecords = len(res.Records)
	return r, nil
}

// SetSyncPolicy tunes when appends are fsynced. The default is
// SyncCritical (every commit-critical record is synced before Append
// returns).
func (r *Recorder) SetSyncPolicy(p SyncPolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sync = p
}

// SyncPolicy returns the current sync policy, so a degradation
// controller (brown-out) can save it before relaxing it and restore it
// when pressure subsides.
func (r *Recorder) SyncPolicy() SyncPolicy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sync
}

// SetObservability attaches a tracing/metrics bundle; journal appends,
// checkpoints, fsyncs and the Open-time recovery scan are counted and
// timed into its registry. Nil detaches.
func (r *Recorder) SetObservability(o *obsv.Observability) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = o
	r.appends, r.appendMs, r.kindAppends = nil, nil, [len(kindCodes)]*obsv.Counter{}
	if o != nil {
		o.M().Counter("journal.recover.records").Add(int64(r.RecoveredRecords))
		o.M().Histogram("journal.recover_ms").ObserveDuration(r.RecoverDuration)
	}
}

// SyncCount reports how many fsyncs the recorder has issued (excluding
// the one in Close). For tests and metrics.
func (r *Recorder) SyncCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.syncCount
}

// SetCheckpointEvery tunes the automatic checkpoint cadence (records
// between snapshots). Zero disables automatic checkpoints.
func (r *Recorder) SetCheckpointEvery(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkpointEvery = n
}

// SetCrashInjector installs a chaos crash injector. Pass nil to
// disable.
func (r *Recorder) SetCrashInjector(fn CrashInjector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.injector = fn
}

// ShouldCrash consults the injector for a crash at the given point,
// returning the CrashError to propagate, or nil.
func (r *Recorder) ShouldCrash(instance int64, activity string, point CrashPoint) *CrashError {
	r.mu.Lock()
	fn := r.injector
	r.mu.Unlock()
	if fn != nil && fn(instance, activity, point) {
		return &CrashError{Instance: instance, Activity: activity, Point: point}
	}
	return nil
}

// Path returns the WAL file path.
func (r *Recorder) Path() string { return r.path }

// SetEpoch sets the fencing epoch stamped on every subsequently
// appended record. A primary sets it after acquiring the lease; a
// promoted standby sets the lease's advanced epoch, so the record
// stream carries the takeover boundary.
func (r *Recorder) SetEpoch(e int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = e
}

// Epoch returns the current fencing epoch.
func (r *Recorder) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// SetAppendGuard installs (nil removes) the pre-write fence check run
// under the recorder mutex at the top of every Append and Checkpoint.
// The guard sees the record about to be written (already stamped with
// the recorder's epoch).
func (r *Recorder) SetAppendGuard(g AppendGuard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.guard = g
}

// Observability returns the attached tracing/metrics bundle. The
// result is nil-safe to use (obsv's accessors tolerate a nil bundle),
// so callers recording metrics alongside the recorder need not check.
func (r *Recorder) Observability() *obsv.Observability {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.obs
}

// FencedWrites reports how many appends the guard has refused with
// ErrFenced (metrics, tests).
func (r *Recorder) FencedWrites() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fencedWrites
}

// Append writes one record durably and folds it into the state.
// Commit-critical records (txn-commit, activity-complete memos,
// checkpoints, dead letters, instance completion) are fsynced according
// to the recorder's SyncPolicy before Append returns, so a memo that
// Append acknowledged is not lost while the effect's side effect
// survives.
//
// The state keeps an activity-complete record's Data as the memo without
// copying it: the caller hands the map over and must not write to it
// again. (An instance-created record's Data, the caller's input, is copied.)
func (r *Recorder) Append(rec *Record) error {
	start := time.Now()
	if rec.Time.IsZero() {
		rec.Time = start.UTC()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendLocked(rec, start)
}

// appendOwned is the typed helpers' Append: rec is copied into the recorder's
// own record under the mutex and cleared once written, so no Record is allocated.
func (r *Recorder) appendOwned(rec Record) error {
	start := time.Now()
	rec.Time = start.UTC()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec = rec
	err := r.appendLocked(&r.rec, start)
	r.rec = Record{}
	return err
}

// appendLocked is Append once rec is stamped with its time (at start).
// Caller holds r.mu.
func (r *Recorder) appendLocked(rec *Record, start time.Time) error {
	if r.closed {
		return fmt.Errorf("journal: append on closed recorder")
	}
	if r.writeErr != nil {
		return r.writeErr
	}
	// Epoch stamping and the fence check happen under the same mutex
	// that serializes the write itself: once a guard observes a newer
	// lease epoch, no further record leaves this recorder.
	rec.Epoch = r.epoch
	if err := r.guardLocked(rec); err != nil {
		return err
	}
	buf, err := r.enc.frame(rec)
	if err != nil {
		return err
	}
	if _, err := r.f.Write(buf); err != nil {
		r.writeErr = fmt.Errorf("%w: append: %v", ErrWriteFailed, err)
		return r.writeErr
	}
	r.state.Apply(rec)
	r.appended++
	if err := r.maybeSyncLocked(rec.Kind); err != nil {
		return err
	}
	if r.obs != nil {
		m := r.obs.M()
		if r.appends == nil {
			r.appends, r.appendMs = m.Counter("journal.appends"), m.Histogram("journal.append_ms")
		}
		byKind := &r.kindAppends[kindCode(rec.Kind)]
		if *byKind == nil || byKind == &r.kindAppends[0] {
			*byKind = m.Counter("journal.appends." + string(rec.Kind))
		}
		(*byKind).Inc()
		r.appends.Inc()
		r.appendMs.ObserveDuration(time.Since(start))
	}
	if r.checkpointEvery > 0 && r.appended >= r.checkpointEvery && rec.Kind != KindCheckpoint {
		// The record is written, folded and synced, and that is all Append
		// reports. A checkpoint the guard refuses or whose write fails is
		// the next append's to report (fenced, or writeErr); one whose
		// rotation fails left the WAL as it was and is tried again then.
		_ = r.checkpointLocked()
	}
	return nil
}

// guardLocked runs the append guard (if any) on a record about to be
// written, counting fenced refusals. Caller holds r.mu.
func (r *Recorder) guardLocked(rec *Record) error {
	if r.guard == nil {
		return nil
	}
	err := r.guard(rec)
	if IsFenced(err) {
		r.fencedWrites++
		r.obs.M().Counter("replica.fenced_writes").Inc()
	}
	return err
}

// maybeSyncLocked applies the sync policy after a record of kind k was
// written. Caller holds r.mu.
func (r *Recorder) maybeSyncLocked(k Kind) error {
	if r.sync.Mode == SyncNever || (r.sync.Mode == SyncCritical && !criticalKind(k)) {
		return nil
	}
	return r.syncLocked()
}

// syncLocked issues the fsync. Caller holds r.mu.
func (r *Recorder) syncLocked() error {
	start := time.Now()
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	r.syncCount++
	r.obs.M().Counter("journal.syncs").Inc()
	r.obs.M().Histogram("journal.sync_ms").ObserveDuration(time.Since(start))
	return nil
}

// rotateSuffix names the in-progress rotation segment next to the WAL.
const rotateSuffix = ".new"

// archiveSuffix prefixes retained rotation archives: the segment of
// rotation generation g is archived as WALName + ".seg" + g.
const archiveSuffix = ".seg"

// archiveGens lists the generations of the archives retained next to
// walPath, oldest first (a foreign file sharing the prefix is skipped).
func archiveGens(walPath string) []int64 {
	matches, _ := filepath.Glob(walPath + archiveSuffix + "*")
	var gens []int64
	for _, m := range matches {
		if g, err := strconv.ParseInt(m[len(walPath+archiveSuffix):], 10, 64); err == nil {
			gens = append(gens, g)
		}
	}
	slices.Sort(gens)
	return gens
}

// archivePath names the retained archive of the segment with rotation
// generation gen (the initial, pre-rotation segment is generation 0).
func archivePath(walPath string, gen int64) string {
	return walPath + archiveSuffix + strconv.FormatInt(gen, 10)
}

// SetRotateKeep retains up to keep retiring segments as read-only
// archives next to the WAL (wal.log.seg<gen>). Rotation renames the new
// segment over the WAL path, so a tailer that lags more than one whole
// rotation between polls would otherwise find the intermediate segment
// gone; with retention it drains the archives in generation order and
// delivery stays exactly-once. Zero (the default) disables retention —
// lagging tailers then detect the loss via SkippedSegments. Archives
// are hard links created before the rename commit point, pruned as
// newer rotations push them past keep, and swept by Open.
func (r *Recorder) SetRotateKeep(keep int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keepSegments = keep
}

// SetRotateKeepBytes additionally caps the total size of retained
// rotation archives. The count bound (SetRotateKeep) limits how many
// generations a tailer may lag; this bounds the disk they occupy — a
// slow tailer behind a write-heavy primary otherwise turns retention
// into an unbounded disk leak. Eviction is strictly oldest-generation
// first and may outrun the count bound, including evicting the newest
// archive when a single segment exceeds the cap; a tailer that then
// lags past an evicted generation detects the loss via SkippedSegments,
// exactly as with the count bound. Zero (the default) disables the byte
// cap. The current retained total is exported as the
// journal.archive_bytes gauge.
func (r *Recorder) SetRotateKeepBytes(max int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keepBytes = max
}

// pruneArchivesLocked enforces both archive retention bounds — count
// (keepSegments) and bytes (keepBytes) — evicting oldest generations
// first, and refreshes the journal.archive_bytes gauge. Caller holds
// r.mu.
func (r *Recorder) pruneArchivesLocked() {
	type arch struct {
		size int64
		path string
	}
	var archives []arch
	var total int64
	for _, gen := range archiveGens(r.path) {
		p := archivePath(r.path, gen)
		if fi, err := os.Stat(p); err == nil {
			archives = append(archives, arch{size: fi.Size(), path: p})
			total += fi.Size()
		}
	}
	evict := func() {
		os.Remove(archives[0].path)
		total -= archives[0].size
		archives = archives[1:]
	}
	for len(archives) > r.keepSegments {
		evict()
	}
	if r.keepBytes > 0 {
		for len(archives) > 0 && total > r.keepBytes {
			evict()
		}
	}
	r.obs.M().Gauge("journal.archive_bytes").SetInt(total)
}

// SetRotateAtCheckpoint enables WAL rotation: every checkpoint writes a
// fresh segment containing only the snapshot, fsyncs it, and atomically
// renames it over the WAL — so the journal's size is bounded by one
// checkpoint plus the records since, instead of growing without bound.
// The crash protocol is the classic atomic-publication one: a crash
// before the rename leaves the old WAL authoritative (Open discards the
// stale segment); a crash after the rename leaves the new WAL, whose
// checkpoint reproduces exactly the state the old WAL replayed to.
// Rotation requires a real file; recorders on injected WAL fakes keep
// the append-only checkpoint behavior.
func (r *Recorder) SetRotateAtCheckpoint(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rotate = on
}

// Rotations reports how many WAL rotations have completed.
func (r *Recorder) Rotations() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rotations
}

// rotateLocked swaps the WAL for a fresh segment holding only buf (a
// marshalled checkpoint record). Returns handled=false when the
// recorder's WAL is not a real file (rotation unsupported; caller falls
// back to appending the checkpoint). Caller holds r.mu.
func (r *Recorder) rotateLocked(buf []byte) (handled bool, err error) {
	old, ok := r.f.(*os.File)
	if !ok {
		return false, nil
	}
	newPath := r.path + rotateSuffix
	nf, err := os.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return true, fmt.Errorf("journal: rotate: create segment: %w", err)
	}
	abort := func(e error) (bool, error) {
		nf.Close()
		os.Remove(newPath)
		return true, e
	}
	if _, err := nf.Write(buf); err != nil {
		return abort(fmt.Errorf("journal: rotate: write checkpoint: %w", err))
	}
	// The segment must be durable BEFORE it is published: rename is the
	// commit point of the rotation, and after it the old records are
	// gone — an unsynced checkpoint would make a crash lose everything.
	if err := nf.Sync(); err != nil {
		return abort(fmt.Errorf("journal: rotate: sync segment: %w", err))
	}
	if r.keepSegments > 0 {
		// Archive the retiring segment (generation r.rotations) by hard
		// link BEFORE the rename, so the moment the new segment is
		// visible at the WAL path the old one is already reachable at
		// its archive name — a tailer that observes the swap never races
		// the archive into existence. A crash here leaves a harmless
		// stale archive that the next Open sweeps.
		arch := archivePath(r.path, r.rotations)
		os.Remove(arch)
		if err := os.Link(r.path, arch); err != nil {
			return abort(fmt.Errorf("journal: rotate: archive segment: %w", err))
		}
		r.pruneArchivesLocked()
	}
	if err := os.Rename(newPath, r.path); err != nil {
		return abort(fmt.Errorf("journal: rotate: publish: %w", err))
	}
	// Published: adopt the new segment; the old handle's contents are
	// superseded.
	old.Close()
	r.f = nf
	r.syncCount++
	r.rotations++
	r.obs.M().Counter("journal.syncs").Inc()
	r.obs.M().Counter("journal.rotations").Inc()
	return true, nil
}

// Checkpoint appends a full state snapshot record, bounding the replay
// work of the next Open.
func (r *Recorder) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("journal: checkpoint on closed recorder")
	}
	if r.writeErr != nil {
		return r.writeErr
	}
	return r.checkpointLocked()
}

func (r *Recorder) checkpointLocked() error {
	start := time.Now()
	rec := &Record{Kind: KindCheckpoint, Checkpoint: r.state.Clone(), Time: time.Now().UTC(), Epoch: r.epoch}
	if r.rotate {
		// A rotation-born checkpoint heads a fresh segment. Stamp it
		// with the segment's rotation generation (Occurrence is unused
		// on checkpoints) so a tailer can detect that it missed an
		// entire intermediate segment — the one staleness failure the
		// drain-before-switch protocol cannot absorb (see Tailer).
		rec.Occurrence = int(r.rotations) + 1
	}
	if err := r.guardLocked(rec); err != nil {
		return err
	}
	buf, err := new(frameEncoder).frame(rec) // not r.enc: a snapshot's buffer is not one to keep
	if err != nil {
		return err
	}
	if r.rotate {
		handled, err := r.rotateLocked(buf)
		if err != nil {
			return err
		}
		if handled {
			r.appended = 0
			r.obs.M().Counter("journal.checkpoints").Inc()
			r.obs.M().Histogram("journal.checkpoint_ms").ObserveDuration(time.Since(start))
			return nil
		}
		// Not a real file: fall through to the append-only checkpoint.
	}
	if _, err := r.f.Write(buf); err != nil {
		r.writeErr = fmt.Errorf("%w: checkpoint: %v", ErrWriteFailed, err)
		return r.writeErr
	}
	r.appended = 0
	if err := r.maybeSyncLocked(KindCheckpoint); err != nil {
		return err
	}
	r.obs.M().Counter("journal.checkpoints").Inc()
	r.obs.M().Histogram("journal.checkpoint_ms").ObserveDuration(time.Since(start))
	return nil
}

// Sync flushes the WAL to stable storage, whatever the sync policy.
func (r *Recorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if r.writeErr != nil {
		return r.writeErr
	}
	return r.syncLocked()
}

// Close syncs and closes the WAL.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if err := r.f.Sync(); err != nil {
		r.f.Close()
		return err
	}
	return r.f.Close()
}

// AllocateID hands out the next instance ID, durably advancing past
// any ID seen in the recovered journal.
func (r *Recorder) AllocateID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.state.NextID
	if id == 0 {
		id = 1
	}
	r.state.NextID = id + 1
	return id
}

// State returns a deep copy of the materialized state.
func (r *Recorder) State() *State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Clone()
}

// InFlight returns the journals of instances needing recovery.
func (r *Recorder) InFlight() []*InstanceJournal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.InFlight()
}

// DeadLetters returns the persisted dead-letter records.
func (r *Recorder) DeadLetters() []DeadLetterRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DeadLetterRecord(nil), r.state.DeadLetters...)
}

// --- typed append helpers -------------------------------------------------

// Deploy appends a record the state does not fold: the fenced-append probe of fleet.go and the failover tests.
func (r *Recorder) Deploy(process string) error {
	return r.appendOwned(Record{Kind: KindDeploy, Process: process})
}

// InstanceCreated journals instance birth with its input message and
// product transaction-mode label.
func (r *Recorder) InstanceCreated(id int64, process, mode string, input map[string]string) error {
	return r.appendOwned(Record{Kind: KindInstanceCreated, Instance: id, Process: process, EffectKind: mode, Data: input})
}

// ActivityStart journals intent to execute an effectful activity.
// Effects.Run does not write it: no fold, replica or tailer reads the
// record. It remains because older journals hold the record and
// bench/ times this append.
func (r *Recorder) ActivityStart(id int64, activity string, occurrence int, effectKind string) error {
	return r.appendOwned(Record{Kind: KindActivityStart, Instance: id, Activity: activity, Occurrence: occurrence, EffectKind: effectKind})
}

// ActivityComplete journals an effectful activity's memoized result.
// The journal keeps memo (see Append): the caller must not write to it again.
func (r *Recorder) ActivityComplete(id int64, activity string, occurrence int, effectKind string, memo map[string]string) error {
	return r.appendOwned(Record{Kind: KindActivityComplete, Instance: id, Activity: activity, Occurrence: occurrence, EffectKind: effectKind, Data: memo})
}

// Txn journals a product-layer transaction boundary, labelled with its
// mode: kind is KindTxnBegin, KindTxnCommit (the pending SQL memos become
// durable) or KindTxnRollback (they are discarded).
func (r *Recorder) Txn(id int64, kind Kind, label string) error {
	return r.appendOwned(Record{Kind: kind, Instance: id, Activity: label})
}

// DeadLetter journals a dead-lettered unit of work.
func (r *Recorder) DeadLetter(id int64, rec DeadLetterRecord) error {
	return r.appendOwned(Record{Kind: KindDeadLetter, Instance: id, Activity: rec.Activity, Data: map[string]string{
		"seq":      strconv.FormatInt(rec.Seq, 10),
		"time":     rec.Time,
		"activity": rec.Activity,
		"target":   rec.Target,
		"key":      rec.Key,
		"attempts": strconv.Itoa(rec.Attempts),
		"reason":   rec.Reason,
		"last_err": rec.LastErr,
	}})
}

// RequeueDeadLetter journals removal of a dead letter for re-driving.
func (r *Recorder) RequeueDeadLetter(key string) error {
	return r.appendOwned(Record{Kind: KindDeadLetterRequeue, Data: map[string]string{"key": key}})
}

// SQLEffectRecord is the decoded form of a KindSQLEffect journal
// record: one successfully executed top-level mutating SQL statement,
// in database execution order. Seq is the database's change sequence
// number (dense, strictly increasing); Session identifies the
// originating database session (replicas keep a session map so
// interleaved transactions replay on matching replica sessions); Kind
// is the statement kind ("INSERT", "COMMIT", ...); Params carries the
// parameter vector, each value encoded by sqldb.EncodeValue; the values
// of named placeholders are its tail.
type SQLEffectRecord struct {
	Seq     int64
	Session int64
	Kind    string
	SQL     string
	Params  []string
}

// SQLEffect journals one CDC record — the change-stream entry a sqldb
// read replica consumes. SQL-effect records are not commit-critical:
// under SyncCritical they become durable with the next critical record,
// which is exactly the replica staleness window the contract documents.
func (r *Recorder) SQLEffect(e SQLEffectRecord) error {
	d := map[string]string{
		"sql":  e.SQL,
		"kind": e.Kind,
		"seq":  strconv.FormatInt(e.Seq, 10),
		"sess": strconv.FormatInt(e.Session, 10),
		"np":   strconv.Itoa(len(e.Params)),
	}
	for i, p := range e.Params {
		d["p"+strconv.Itoa(i)] = p
	}
	return r.appendOwned(Record{Kind: KindSQLEffect, EffectKind: EffectSQL, Data: d})
}

// DecodeSQLEffect unpacks a KindSQLEffect record. ok is false when rec
// is not a well-formed SQL-effect record.
func DecodeSQLEffect(rec *Record) (e SQLEffectRecord, ok bool) {
	if rec.Kind != KindSQLEffect || rec.Data == nil {
		return e, false
	}
	sql, okSQL := rec.Data["sql"]
	if !okSQL {
		return e, false
	}
	e.SQL = sql
	e.Kind = rec.Data["kind"]
	e.Seq, _ = strconv.ParseInt(rec.Data["seq"], 10, 64) // absent or malformed: 0
	e.Session, _ = strconv.ParseInt(rec.Data["sess"], 10, 64)
	np, _ := strconv.Atoi(rec.Data["np"])
	if np > 0 {
		e.Params = make([]string, np)
		for i := 0; i < np; i++ {
			e.Params[i] = rec.Data["p"+strconv.Itoa(i)]
		}
	}
	return e, true
}

// InstanceComplete journals instance termination. fault is empty for
// successful completion.
func (r *Recorder) InstanceComplete(id int64, fault string) error {
	data := map[string]string(nil)
	if fault != "" {
		data = map[string]string{"fault": fault}
	}
	return r.appendOwned(Record{Kind: KindInstanceComplete, Instance: id, Data: data})
}
