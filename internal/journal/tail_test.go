package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// collectTailer polls t and appends every delivered non-checkpoint
// record id (Data["id"]) to got, counting checkpoints separately.
func pollIDs(t *testing.T, tl *Tailer, got map[string]int) (records, checkpoints int) {
	t.Helper()
	n, err := tl.Poll(func(rec *Record) error {
		if rec.Kind == KindCheckpoint {
			checkpoints++
			return nil
		}
		got[rec.Data["id"]]++
		records++
		return nil
	})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if n != records+checkpoints {
		t.Fatalf("poll delivered %d, emitted %d", n, records+checkpoints)
	}
	return records, checkpoints
}

// TestTailerFollowsLiveAppends: records appended between polls arrive
// in order, exactly once, with no primer records lost before the
// tailer attached.
func TestTailerFollowsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCheckpointEvery(0)
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", map[string]string{"id": "created"}))

	tl := NewTailer(dir)
	defer tl.Close()
	got := map[string]int{}
	pollIDs(t, tl, got)
	if got["created"] != 1 {
		t.Fatalf("pre-attach record not delivered: %v", got)
	}

	for i := 0; i < 25; i++ {
		must(t, r.ActivityComplete(id, "A", i+1, EffectInvoke, map[string]string{"id": fmt.Sprintf("a%d", i)}))
		if i%7 == 0 {
			pollIDs(t, tl, got)
		}
	}
	pollIDs(t, tl, got)
	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("a%d", i)
		if got[key] != 1 {
			t.Fatalf("record %s delivered %d times, want 1", key, got[key])
		}
	}
	if tl.Backlog() != 0 {
		t.Fatalf("backlog %d after full drain, want 0", tl.Backlog())
	}
}

// TestTailerTornTailRetry: a partially written frame parks the cursor;
// completing the frame later delivers the record exactly once — the
// live analogue of Scan's torn-tail handling.
func TestTailerTornTailRetry(t *testing.T) {
	for name, frame := range map[string]func(testing.TB, *Record) []byte{"binary": binaryFrame, "legacy": legacyFrame} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			must(t, r.InstanceCreated(1, "P", "", map[string]string{"id": "r1"}))
			must(t, r.Close())

			buf := frame(t, &Record{Kind: KindActivityStart, Instance: 1, Activity: "A", Data: map[string]string{"id": "r2"}})
			path := filepath.Join(dir, WALName)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			half := len(buf) / 2
			if _, err := f.Write(buf[:half]); err != nil {
				t.Fatal(err)
			}

			tl := NewTailer(dir)
			defer tl.Close()
			got := map[string]int{}
			pollIDs(t, tl, got)
			if got["r1"] != 1 || got["r2"] != 0 {
				t.Fatalf("torn poll delivered %v, want only r1", got)
			}

			if _, err := f.Write(buf[half:]); err != nil {
				t.Fatal(err)
			}
			f.Close()
			pollIDs(t, tl, got)
			if got["r2"] != 1 {
				t.Fatalf("completed frame delivered %d times, want 1", got["r2"])
			}
		})
	}
}

// TestTailerThroughRotation is the WAL-rotation × concurrent-tailer
// regression: a writer appends through multiple checkpoint rotations
// while a tailer polls concurrently. Across every fsync-then-rename
// commit point, no record may be skipped or double-delivered — every
// unique appended record arrives exactly once, in order, and the
// rotation-born checkpoints carry contiguous generations.
func TestTailerThroughRotation(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCheckpointEvery(17)
	r.SetRotateAtCheckpoint(true)
	// Retention makes exactly-once hold even when the writer rotates
	// several times between tailer polls — without it the scheduler
	// could rename a whole segment away before the tailer sees it.
	r.SetRotateKeep(64)
	r.SetSyncPolicy(SyncPolicy{Mode: SyncNever})
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", map[string]string{"id": "created"}))

	const total = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := r.ActivityComplete(id, "A", i+1, EffectInvoke, map[string]string{"id": strconv.Itoa(i)}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	tl := NewTailer(dir)
	mu := sync.Mutex{}
	got := map[string]int{}
	var order []int
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := tl.Poll(func(rec *Record) error {
				if rec.Kind == KindCheckpoint {
					return nil
				}
				mu.Lock()
				got[rec.Data["id"]]++
				if rec.Kind == KindActivityComplete {
					n, _ := strconv.Atoi(rec.Data["id"])
					order = append(order, n)
				}
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Errorf("tail poll: %v", err)
				return
			}
			mu.Lock()
			caught := len(order) >= total
			mu.Unlock()
			if caught {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Wait()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stop)
		<-done
		t.Fatal("tailer never caught up with the writer")
	}
	tl.Close()

	if r.Rotations() == 0 {
		t.Fatal("writer never rotated; the regression needs rotations")
	}
	for i := 0; i < total; i++ {
		key := strconv.Itoa(i)
		if got[key] != 1 {
			t.Fatalf("record %s delivered %d times across rotation, want exactly 1 (rotations=%d)",
				key, got[key], r.Rotations())
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			t.Fatalf("delivery out of order at %d: %d after %d", i, order[i], order[i-1])
		}
	}
	if tl.SkippedSegments() != 0 {
		t.Fatalf("tailer reported %d skipped segments; drain-before-switch must not skip", tl.SkippedSegments())
	}
	must(t, r.Close())
}

// TestTailerDrainsRetainedArchives: with retention on, a tailer whose
// poll gap spans several whole rotations still delivers every record
// exactly once by draining the archived segments in generation order.
func TestTailerDrainsRetainedArchives(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCheckpointEvery(0)
	r.SetRotateAtCheckpoint(true)
	r.SetRotateKeep(8)
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", map[string]string{"id": "created"}))

	tl := NewTailer(dir)
	defer tl.Close()
	got := map[string]int{}
	pollIDs(t, tl, got)

	// Four whole rotations with no poll in between: three middle
	// segments exist only as archives by the time the tailer looks.
	occ := 0
	for seg := 0; seg < 4; seg++ {
		for k := 0; k < 3; k++ {
			occ++
			must(t, r.ActivityComplete(id, "A", occ, EffectInvoke,
				map[string]string{"id": fmt.Sprintf("s%dk%d", seg, k)}))
		}
		must(t, r.Checkpoint())
	}

	pollIDs(t, tl, got)
	for seg := 0; seg < 4; seg++ {
		for k := 0; k < 3; k++ {
			key := fmt.Sprintf("s%dk%d", seg, k)
			if got[key] != 1 {
				t.Fatalf("record %s delivered %d times, want 1 (got=%v)", key, got[key], got)
			}
		}
	}
	if tl.SkippedSegments() != 0 {
		t.Fatalf("skipped = %d with retention covering the gap, want 0", tl.SkippedSegments())
	}
}

// TestTailerDetectsSkippedSegment: when the poll gap spans more than
// one whole rotation, the middle segment is renamed away before the
// tailer can open it. The loss is detected via the rotation-generation
// stamp on segment-head checkpoints.
func TestTailerDetectsSkippedSegment(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCheckpointEvery(0)
	r.SetRotateAtCheckpoint(true)
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", nil))
	must(t, r.Checkpoint()) // rotation 1

	tl := NewTailer(dir)
	defer tl.Close()
	if _, err := tl.Poll(func(*Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tl.SkippedSegments() != 0 {
		t.Fatalf("skipped = %d before any gap", tl.SkippedSegments())
	}

	// Two rotations with no poll in between: the tailer's open fd pins
	// rotation-1's segment; rotation-2's segment is replaced by
	// rotation-3's before the next poll can open it.
	must(t, r.ActivityComplete(id, "A", 1, EffectInvoke, nil))
	must(t, r.Checkpoint()) // rotation 2 (this segment will vanish)
	must(t, r.ActivityComplete(id, "A", 2, EffectInvoke, nil))
	must(t, r.Checkpoint()) // rotation 3

	if _, err := tl.Poll(func(*Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tl.SkippedSegments() != 1 {
		t.Fatalf("skipped = %d, want 1 (rotation-2 segment was renamed away unseen)", tl.SkippedSegments())
	}
}

// TestTailerFirstAttachDrainsRetainedHistory: a tailer created AFTER
// rotations have already happened must start from the earliest retained
// archive, not the live segment — a consumer bootstrapped mid-stream
// (a sqldb replica with a dump floor) needs the full retained history
// and deduplicates below its floor itself.
func TestTailerFirstAttachDrainsRetainedHistory(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCheckpointEvery(0)
	r.SetRotateAtCheckpoint(true)
	r.SetRotateKeep(8)
	id := r.AllocateID()
	occ := 0
	for seg := 0; seg < 3; seg++ {
		for k := 0; k < 2; k++ {
			occ++
			must(t, r.ActivityComplete(id, "A", occ, EffectInvoke,
				map[string]string{"id": fmt.Sprintf("s%dk%d", seg, k)}))
		}
		must(t, r.Checkpoint())
	}

	// Attach only now: generations 0..2 exist solely as archives.
	tl := NewTailer(dir)
	defer tl.Close()
	got := map[string]int{}
	pollIDs(t, tl, got)
	for seg := 0; seg < 3; seg++ {
		for k := 0; k < 2; k++ {
			key := fmt.Sprintf("s%dk%d", seg, k)
			if got[key] != 1 {
				t.Fatalf("record %s delivered %d times, want 1 (got=%v)", key, got[key], got)
			}
		}
	}
	if tl.SkippedSegments() != 0 {
		t.Fatalf("skipped = %d on first attach with full retention, want 0", tl.SkippedSegments())
	}
}

// TestTailerTwoRotationsBetweenPolls: the drain-before-switch path with
// TWO whole rotations between polls. The tailer's open descriptor pins
// generation g while records keep landing in it; by the next poll, g
// and g+1 both exist only as archives. The single poll must finish
// draining the pinned inode, then chase BOTH archived generations in
// order before adopting the live segment — strict record order, exactly
// once, and no SkippedSegments false positive while retention covers
// the gap.
func TestTailerTwoRotationsBetweenPolls(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCheckpointEvery(0)
	r.SetRotateAtCheckpoint(true)
	r.SetRotateKeep(8)
	id := r.AllocateID()
	must(t, r.InstanceCreated(id, "P", "", map[string]string{"id": "seed"}))

	tl := NewTailer(dir)
	defer tl.Close()
	var order []string
	poll := func() {
		t.Helper()
		if _, err := tl.Poll(func(rec *Record) error {
			if rec.Kind != KindCheckpoint {
				order = append(order, rec.Data["id"])
			}
			return nil
		}); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	poll() // pins generation 0's inode

	// Records the pinned descriptor has not drained yet, then two
	// back-to-back rotations, then live-segment records.
	want := []string{"seed"}
	occ := 0
	appendID := func(idStr string) {
		occ++
		must(t, r.ActivityComplete(id, "A", occ, EffectInvoke, map[string]string{"id": idStr}))
		want = append(want, idStr)
	}
	appendID("g0-a")
	appendID("g0-b")
	must(t, r.Checkpoint()) // rotation 1: generation 0 archived
	appendID("g1-a")
	appendID("g1-b")
	must(t, r.Checkpoint()) // rotation 2: generation 1 archived
	appendID("live-a")
	appendID("live-b")

	poll()
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}
	if tl.SkippedSegments() != 0 {
		t.Fatalf("skipped = %d with retention covering both generations, want 0", tl.SkippedSegments())
	}
	if tl.Segment() != 2 {
		t.Fatalf("tailer segment = %d after chasing two rotations, want 2", tl.Segment())
	}
}
