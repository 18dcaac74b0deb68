package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Tailer incrementally follows a live WAL: it decodes complete frames
// as the primary appends them and survives WAL rotation (the
// checkpoint-swap protocol in Recorder.SetRotateAtCheckpoint). It is
// the change-stream half of replication — a warm standby folds the
// tailed records into a State to replay-to-follow, and a sqldb read
// replica applies the KindSQLEffect records it carries.
//
// The cursor protocol: within one segment (one WAL inode) the tailer
// only ever advances past fully validated frames, so a torn read — the
// writer's in-flight append observed mid-write — parks the cursor at
// the frame boundary and the same offset decodes cleanly on a later
// poll. Across rotation, the commit point is the publisher's
// fsync-then-rename: the tailer detects the rename by inode identity
// (os.SameFile), finishes draining the superseded inode through its
// still-open descriptor — records appended after the tailer's previous
// poll but before the swap live only there — and then reopens the path
// at offset zero. Drain-before-switch makes delivery exactly-once
// across the rename: nothing is skipped (the old inode is frozen once
// the recorder adopts the new segment, so a full drain is a complete
// one), and nothing is doubled (the new segment starts with a
// checkpoint record that was never in the old segment).
//
// Drain-before-switch alone cannot absorb a poll gap spanning MORE
// than one rotation: the intermediate segment was renamed away before
// the tailer could open it. With Recorder.SetRotateKeep the retiring
// segments survive as archives (wal.log.seg<gen>) and the tailer
// chases them in generation order, keeping delivery exactly-once at
// any lag up to the retention bound; past it (or with retention off)
// the loss is detected via the rotation-generation stamp on
// segment-head checkpoints and surfaced as SkippedSegments.
//
// A Tailer is single-goroutine: callers serialize Poll/Close
// themselves (the Standby wraps one in its own loop).
type Tailer struct {
	path    string
	f       *os.File
	fi      os.FileInfo
	cursor  int64 // byte offset of the next undecoded frame in f
	segment int64 // rotations observed since NewTailer
	archive bool  // f is a retained (immutable) archive, not the live WAL
	primed  bool  // at least one segment fully drained since attach

	delivered int64     // records emitted over the tailer's lifetime
	lastTime  time.Time // Time field of the most recently emitted record

	lastGen int64 // rotation generation of the last checkpoint seen
	skipped int64 // whole segments missed beyond what archives covered
}

// NewTailer returns a tailer following the WAL inside dir (the same
// directory a Recorder was — or will be — opened on). The WAL need not
// exist yet; polls before the primary's first append simply deliver
// nothing.
func NewTailer(dir string) *Tailer {
	return &Tailer{path: filepath.Join(dir, WALName)}
}

// maxRotationsPerPoll bounds the rotation-chase loop; a tailer that
// lags this many whole rotations behind inside one poll is broken.
const maxRotationsPerPoll = 1000

// Poll decodes every complete frame appended since the previous poll
// and hands each record to emit, in order. It returns the number of
// records delivered. An emit error aborts the poll *without* advancing
// the cursor past the failed record, so the next poll redelivers it.
// A torn tail (the writer's in-flight append) is not an error: the
// poll stops before it and the next poll retries the same offset.
func (t *Tailer) Poll(emit func(*Record) error) (int, error) {
	delivered := 0
	for chase := 0; ; chase++ {
		if chase > maxRotationsPerPoll {
			return delivered, fmt.Errorf("journal: tail: runaway rotation chase on %s", t.path)
		}
		if t.f == nil {
			// Between segments: the next one in generation order is
			// either still retained as an archive (we lagged ≥2
			// rotations) or it is the live WAL itself.
			if t.primed {
				if f, fi, ok := openIfExists(archivePath(t.path, t.lastGen+1)); ok {
					t.f, t.fi, t.cursor, t.archive = f, fi, 0, true
				}
			} else if g, ok := earliestArchive(t.path); ok {
				// First attach with rotations already behind the WAL:
				// start from the earliest retained archive, not the live
				// segment, so a consumer bootstrapped mid-stream (a sqldb
				// replica skipping below its dump floor) receives the
				// full retained history. Records its floor already covers
				// are the consumer's to deduplicate.
				if f, fi, ok2 := openIfExists(archivePath(t.path, g)); ok2 {
					t.f, t.fi, t.cursor, t.archive = f, fi, 0, true
					t.lastGen = g
				}
			}
			if t.f == nil {
				f, fi, ok := openIfExists(t.path)
				if !ok {
					return delivered, nil // primary has not created the WAL yet
				}
				t.f, t.fi, t.cursor, t.archive = f, fi, 0, false
			}
		}
		n, err := t.drain(emit)
		delivered += n
		if err == errSegmentGap {
			// The live WAL's head is generations ahead but the archive
			// of the segment we need appeared after we opened — retry
			// the open, which will prefer the archive.
			t.f.Close()
			t.f, t.fi, t.cursor = nil, nil, 0
			continue
		}
		if err != nil {
			return delivered, err
		}
		t.primed = true
		if t.archive {
			// The hard link is created BEFORE the rename commit point,
			// so for a brief window the "archive" still IS the live WAL.
			// If the path still names our inode, keep the descriptor and
			// cursor and continue as the live segment — resetting to
			// offset zero here would redeliver everything just drained.
			if cur, err := os.Stat(t.path); err == nil && os.SameFile(t.fi, cur) {
				t.archive = false
				continue
			}
			// Truly retired: immutable, so EOF means fully drained.
			// Move on to the next generation.
			t.f.Close()
			t.f, t.fi, t.cursor, t.archive = nil, nil, 0, false
			t.segment++
			continue
		}
		cur, err := os.Stat(t.path)
		if err != nil && !os.IsNotExist(err) {
			return delivered, fmt.Errorf("journal: tail: %w", err)
		}
		if err == nil && os.SameFile(t.fi, cur) {
			return delivered, nil // still the same segment: caught up
		}
		// The path now names a different inode (rotation published a new
		// segment) or nothing at all. Our descriptor pins the superseded
		// inode, which froze the moment the recorder adopted the new
		// segment — drain whatever landed there after our last read,
		// then switch to the new segment at offset zero.
		n, err = t.drain(emit)
		delivered += n
		if err != nil && err != errSegmentGap {
			return delivered, err
		}
		t.f.Close()
		t.f, t.fi, t.cursor = nil, nil, 0
		t.segment++
	}
}

// earliestArchive returns the lowest retained archive generation next
// to walPath, ok=false when no archives exist.
func earliestArchive(walPath string) (int64, bool) {
	gens := archiveGens(walPath)
	if len(gens) == 0 {
		return 0, false
	}
	return gens[0], true
}

// openIfExists opens path read-only, returning ok=false if it does not
// exist (a vanished archive or a WAL not yet created).
func openIfExists(path string) (*os.File, os.FileInfo, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, false
	}
	return f, fi, true
}

// errSegmentGap is drain's signal that the current (live) segment is
// more than one generation ahead but the missing segment's archive
// exists — the chase loop should re-open via the archive. Never
// escapes Poll.
var errSegmentGap = errors.New("journal: tail: segment gap with archive available")

// drain decodes complete frames from the current segment starting at
// the cursor, emitting each and advancing the cursor past it. It stops
// cleanly at EOF or at a torn (in-flight) frame.
func (t *Tailer) drain(emit func(*Record) error) (int, error) {
	start := t.cursor
	fr := NewFrameReader(io.NewSectionReader(t.f, start, 1<<62))
	n := 0
	for {
		rec, err := fr.Next()
		if err == io.EOF || IsTorn(err) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("journal: tail: %w", err)
		}
		if rec.Kind == KindCheckpoint && rec.Occurrence > 0 {
			// Rotation-born checkpoint: generations must be contiguous.
			// A jump means the poll gap spanned more than one rotation
			// and the intermediate segment was renamed away before we
			// could open it. If its archive is retained, hand control
			// back to the chase loop WITHOUT emitting or advancing — the
			// archive is drained first and this frame decodes again
			// afterwards. Otherwise the records are unrecoverable from
			// the log: count them so consumers needing completeness
			// (sqldb replicas) know to re-bootstrap.
			gen := int64(rec.Occurrence)
			if t.primed && !t.archive && gen > t.lastGen+1 {
				if _, err := os.Stat(archivePath(t.path, t.lastGen+1)); err == nil {
					return n, errSegmentGap
				}
				t.skipped += gen - t.lastGen - 1
			}
			t.lastGen = gen
		}
		if err := emit(rec); err != nil {
			return n, err
		}
		t.cursor = start + fr.Offset()
		t.delivered++
		t.lastTime = rec.Time
		n++
	}
}

// Backlog returns the bytes appended to the current segment that the
// tailer has not yet decoded — zero when fully caught up. It is a lag
// signal between polls; Poll itself always drains to the tail.
func (t *Tailer) Backlog() int64 {
	if t.f == nil {
		return 0
	}
	fi, err := t.f.Stat()
	if err != nil {
		return 0
	}
	if b := fi.Size() - t.cursor; b > 0 {
		return b
	}
	return 0
}

// Delivered reports the total records emitted over the tailer's life.
func (t *Tailer) Delivered() int64 { return t.delivered }

// LastRecordTime returns the Time field of the most recently emitted
// record (zero before any delivery). now − LastRecordTime is the
// replica's staleness in wall-clock terms once the tailer is caught
// up.
func (t *Tailer) LastRecordTime() time.Time { return t.lastTime }

// Segment reports how many rotations the tailer has crossed.
func (t *Tailer) Segment() int64 { return t.segment }

// SkippedSegments reports how many whole WAL segments the tailer
// missed because a poll gap spanned more than one rotation. Lifecycle
// consumers recover automatically (the next checkpoint carries full
// state); SQL-effect consumers cannot (those records are gone) and
// must re-bootstrap when this is non-zero.
func (t *Tailer) SkippedSegments() int64 { return t.skipped }

// Close releases the tailer's descriptor. The tailer may be reused
// after Close; the next Poll reopens the WAL at offset zero, so only
// close a tailer whose consumer tolerates redelivery (or is done).
func (t *Tailer) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f, t.fi, t.cursor = nil, nil, 0
	return err
}
