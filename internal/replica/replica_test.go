package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/sqldb"
)

// fakeClock is a mutex-protected manual clock shared by lease and
// standby so tests advance time instead of sleeping through TTLs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLeaseAcquireRenewTakeover(t *testing.T) {
	clock := newFakeClock()
	l := OpenLease(t.TempDir(), time.Second)
	l.SetClock(clock.Now)

	a, err := l.Acquire("a")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if a.Epoch != 1 || a.Holder != "a" {
		t.Fatalf("acquired %+v, want epoch 1 holder a", a)
	}
	// A live lease refuses other holders.
	if _, err := l.Acquire("b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over live lease: err = %v, want ErrLeaseHeld", err)
	}
	// Renewal keeps it live across TTL windows without epoch change.
	clock.Advance(900 * time.Millisecond)
	if err := l.Renew("a", a.Epoch); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clock.Advance(900 * time.Millisecond)
	if _, err := l.Acquire("b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over renewed lease: err = %v, want ErrLeaseHeld", err)
	}

	// Heartbeat stops; past the TTL the standby may take over, and the
	// epoch strictly advances.
	clock.Advance(2 * time.Second)
	b, err := l.Acquire("b")
	if err != nil {
		t.Fatalf("takeover acquire: %v", err)
	}
	if b.Epoch != a.Epoch+1 {
		t.Fatalf("takeover epoch %d, want %d", b.Epoch, a.Epoch+1)
	}
	// The old holder's renewal now fails: it lost the lease.
	if err := l.Renew("a", a.Epoch); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renew: err = %v, want ErrLeaseLost", err)
	}
}

// TestLeaseAcquireAtomicAcrossHandles: competing holders go through the
// cross-process flock, so a read-check-write can never be torn by a
// concurrent one — the lost-update shape behind split-brain (a paused
// writer resuming mid-cycle and clobbering an advanced epoch with its
// stale read). Distinct Lease handles model distinct processes: each
// holds its own descriptor, so the in-process mutex provides no
// exclusion between them and only the flock serializes. Every
// successful re-acquisition advances the epoch by exactly one; with any
// lost update the final epoch falls short of the success count.
func TestLeaseAcquireAtomicAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	var acquired atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := OpenLease(dir, time.Minute) // own handle = own descriptor
			for i := 0; i < rounds; i++ {
				// Same holder everywhere: re-acquisition is always legal
				// and always bumps the epoch, keeping every interleaving a
				// success so the count↔epoch invariant stays exact.
				if _, err := l.Acquire("shared-holder"); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				acquired.Add(1)
			}
		}()
	}
	wg.Wait()
	st, err := OpenLease(dir, time.Minute).Read()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != acquired.Load() {
		t.Fatalf("final epoch %d != %d successful acquisitions: read-check-write was torn (lost update)",
			st.Epoch, acquired.Load())
	}
}

// TestCaptureSQLCountsNonFencedDrops: an append failure that is NOT a
// fencing refusal means a live primary's change was lost — it must be
// counted (CaptureStats + replica.capture_drops), unlike fenced
// refusals which are accounted separately by FencedWrites.
func TestCaptureSQLCountsNonFencedDrops(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.New()
	rec.SetObservability(obs)

	db := sqldb.Open("p")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	stats := CaptureSQL(db, rec)

	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if n := stats.Dropped(); n != 0 {
		t.Fatalf("healthy capture dropped %d", n)
	}

	// Kill the recorder out from under the capture: the next change
	// executes on the primary but cannot reach the WAL — a real loss.
	rec.Close()
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if n := stats.Dropped(); n != 1 {
		t.Fatalf("Dropped = %d after failed append, want 1", n)
	}
	if n := obs.Metrics.Counter("replica.capture_drops").Value(); n != 1 {
		t.Fatalf("replica.capture_drops = %d, want 1", n)
	}
	CaptureSQL(db, nil)
}

// TestCaptureSQLFencedRefusalsNotCountedAsDrops: fenced appends are the
// protocol working as designed (the primary lost authority), not data
// loss, and must stay out of the drop counter.
func TestCaptureSQLFencedRefusalsNotCountedAsDrops(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	lease := OpenLease(dir, time.Second)
	lease.SetClock(clock.Now)
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := AttachPrimary(rec, lease, "a"); err != nil {
		t.Fatal(err)
	}

	db := sqldb.Open("p")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	stats := CaptureSQL(db, rec)
	defer CaptureSQL(db, nil)

	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // heartbeat lapses; guard self-fences
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if n := stats.Dropped(); n != 0 {
		t.Fatalf("fenced refusal counted as drop: Dropped = %d, want 0", n)
	}
	if rec.FencedWrites() == 0 {
		t.Fatal("fenced refusal not counted by FencedWrites")
	}
}

// TestSQLReplicaFollowsAPIRollback is the end-to-end regression for the
// replication wedge: the workflow layers abort transactions through
// Session.Rollback (not a ROLLBACK statement); the rollback must ride
// the WAL so the replica closes its mirrored transaction and the origin
// session's next BEGIN replays cleanly instead of wedging CatchUp.
func TestSQLReplicaFollowsAPIRollback(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	primary := sqldb.Open("p")
	primary.MustExec("CREATE TABLE t (id INTEGER)")
	CaptureSQL(primary, rec)
	defer CaptureSQL(primary, nil)

	replica := sqldb.Open("r")
	replica.MustExec("CREATE TABLE t (id INTEGER)")
	rep := NewSQLReplica(replica, 0)
	sb := NewStandby(dir, OpenLease(dir, time.Minute))
	sb.OnSQLEffect(rep.ApplyEffect)

	s := primary.Session()
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (1)")
	s.Rollback() // fault path: API rollback, no ROLLBACK statement

	if _, err := sb.CatchUp(); err != nil {
		t.Fatalf("catch-up across API rollback: %v", err)
	}
	if n := rep.OpenTransactions(); n != 0 {
		t.Fatalf("replica holds %d open txns after captured rollback, want 0", n)
	}

	// The same origin session transacts again — the wedge scenario.
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (2)")
	s.Exec("COMMIT")
	if _, err := sb.CatchUp(); err != nil {
		t.Fatalf("catch-up after reuse of origin session: %v", err)
	}
	if err := rep.Complete(sb); err != nil {
		t.Fatalf("completeness: %v", err)
	}
	if pd, rd := primary.Dump(), replica.Dump(); pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}
}

// TestStandbyReplayToFollow: the standby's incrementally folded state
// stays byte-identical to the primary recorder's own materialized
// state, across checkpoints and WAL rotation.
func TestStandbyReplayToFollow(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.SetCheckpointEvery(7)
	rec.SetRotateAtCheckpoint(true)
	rec.SetRotateKeep(8)

	sb := NewStandby(dir, OpenLease(dir, time.Minute))

	for i := int64(1); i <= 30; i++ {
		id := rec.AllocateID()
		if err := rec.InstanceCreated(id, "P", "", map[string]string{"k": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := rec.ActivityComplete(id, "act", 1, journal.EffectInvoke, map[string]string{"r": "ok"}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := rec.InstanceComplete(id, ""); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			// Interleave polls with appends so the tailer crosses live
			// segments, rotations, and retained archives.
			if _, err := sb.CatchUp(); err != nil {
				t.Fatalf("catch-up at %d: %v", i, err)
			}
		}
	}
	if _, err := sb.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if rec.Rotations() == 0 {
		t.Fatal("test never rotated the WAL; tighten checkpointEvery")
	}
	if n := sb.SkippedSegments(); n != 0 {
		t.Fatalf("standby skipped %d segments with retention on", n)
	}

	want, _ := json.Marshal(rec.State())
	got, _ := json.Marshal(sb.State())
	if string(want) != string(got) {
		t.Fatalf("standby state diverged from primary:\nprimary: %s\nstandby: %s", want, got)
	}
	if len(sb.InFlight()) != len(rec.InFlight()) {
		t.Fatalf("in-flight mismatch: standby %d, primary %d", len(sb.InFlight()), len(rec.InFlight()))
	}
}

// TestPausedPrimaryCannotSplitBrain is the fencing regression test: a
// primary stalls (heartbeat stops), the standby takes over, and the
// resumed primary's next append fails with ErrFenced. Run under -race:
// the writer goroutine hammers appends concurrently with the clock
// advance and the takeover, and the test proves no acked record is
// lost and no post-takeover record is accepted from the old primary —
// the no-double-effect / no-split-brain property.
func TestPausedPrimaryCannotSplitBrain(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	lease := OpenLease(dir, time.Second)
	lease.SetClock(clock.Now)

	primary, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	st, err := AttachPrimary(primary, lease, "primary-a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Fatalf("primary epoch %d, want 1", st.Epoch)
	}

	// Writer goroutine: appends until fenced, recording acked IDs.
	var (
		ackedMu  sync.Mutex
		acked    []int64
		ackedN   atomic.Int64
		writeErr error
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		for id := int64(1); ; id++ {
			err := primary.InstanceCreated(id, "P", "", nil)
			if err != nil {
				writeErr = err
				return
			}
			ackedMu.Lock()
			acked = append(acked, id)
			ackedMu.Unlock()
			ackedN.Add(1)
		}
	}()

	// Let a healthy burst through, then pause the primary's world: its
	// heartbeat stops (we simply advance the clock past the TTL).
	for ackedN.Load() < 25 {
		time.Sleep(time.Millisecond)
	}
	clock.Advance(5 * time.Second)

	// The primary self-fences on its own expired lease — before the
	// standby even exists. Every record it acked is on disk.
	<-done
	if !journal.IsFenced(writeErr) {
		t.Fatalf("paused primary's append: err = %v, want ErrFenced", writeErr)
	}
	if primary.FencedWrites() == 0 {
		t.Fatal("FencedWrites not counted")
	}

	// Standby takes over the expired lease.
	obs := obsv.New()
	sb := NewStandby(dir, lease)
	sb.SetObservability(obs)
	sb.SetClock(clock.Now)
	if _, err := sb.CatchUp(); err != nil {
		t.Fatal(err)
	}
	newRec, err := sb.Promote("standby-b")
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer newRec.Close()
	if got := newRec.Epoch(); got != 2 {
		t.Fatalf("promoted epoch %d, want 2", got)
	}
	if got := obs.Metrics.Counter("replica.takeovers").Value(); got != 1 {
		t.Fatalf("replica.takeovers = %d, want 1", got)
	}

	// Exactly-once across the takeover: every record the old primary
	// acked is in the new recorder's state — nothing acked was lost,
	// and nothing unacked appeared.
	state := newRec.State()
	ackedMu.Lock()
	ackedIDs := append([]int64(nil), acked...)
	ackedMu.Unlock()
	for _, id := range ackedIDs {
		if _, ok := state.Instances[id]; !ok {
			t.Fatalf("acked instance %d missing after takeover", id)
		}
	}
	if got, want := len(state.Instances), len(ackedIDs); got != want {
		t.Fatalf("takeover state holds %d instances, old primary acked %d", got, want)
	}

	// The resumed primary stays fenced forever: even if its stale
	// process tries again after the takeover, the epoch check refuses.
	if err := primary.InstanceCreated(999, "P", "", nil); !journal.IsFenced(err) {
		t.Fatalf("resumed primary append: err = %v, want ErrFenced", err)
	}
	// And its writes cannot reach the authoritative WAL even physically:
	// the promoted standby rotated, so the path names a new inode while
	// the old primary's descriptor holds the orphan.
	if err := newRec.InstanceCreated(1000, "P", "", nil); err != nil {
		t.Fatalf("new primary append: %v", err)
	}
	if n := len(newRec.State().Instances); n != len(ackedIDs)+1 {
		t.Fatalf("new primary state has %d instances, want %d", n, len(ackedIDs)+1)
	}

	// The new primary keeps writing across lease renewals.
	clock.Advance(900 * time.Millisecond)
	if err := lease.Renew("standby-b", 2); err != nil {
		t.Fatal(err)
	}
	if err := newRec.InstanceCreated(1001, "P", "", nil); err != nil {
		t.Fatalf("append after renew: %v", err)
	}
}

// TestPromoteRequiresExpiredLease: takeover is illegal while the
// primary's heartbeat is live.
func TestPromoteRequiresExpiredLease(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	lease := OpenLease(dir, time.Second)
	lease.SetClock(clock.Now)

	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := AttachPrimary(rec, lease, "a"); err != nil {
		t.Fatal(err)
	}

	sb := NewStandby(dir, lease)
	if _, err := sb.Promote("b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("promote over live lease: err = %v, want ErrLeaseHeld", err)
	}
	// The failed promotion must not have fenced the primary.
	if err := rec.InstanceCreated(1, "P", "", nil); err != nil {
		t.Fatalf("primary append after refused promotion: %v", err)
	}
}

// TestSQLReplicaEndToEnd: the primary database's change stream rides
// the WAL as SQL-effect records; a standby feeds them to a read
// replica bootstrapped mid-stream from a consistent dump; the replica
// converges to the primary byte-for-byte, refuses direct writes, and
// opens for writes only on promotion.
func TestSQLReplicaEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.SetCheckpointEvery(11)
	rec.SetRotateAtCheckpoint(true)
	rec.SetRotateKeep(8)

	primary := sqldb.Open("p")
	CaptureSQL(primary, rec)
	s := primary.Session()
	mustExec := func(sql string, params ...sqldb.Value) {
		t.Helper()
		if _, err := s.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
	mustExec("CREATE SEQUENCE ids START WITH 1")
	mustExec("INSERT INTO t VALUES (NEXTVAL('ids'), ?)", sqldb.Str("pre-bootstrap"))

	// Bootstrap the replica mid-stream: the dump already contains row 1,
	// and the paired floor makes the applier skip its change records.
	rep, err := BootstrapSQLReplica(primary, "r")
	if err != nil {
		t.Fatal(err)
	}

	sb := NewStandby(dir, OpenLease(dir, time.Minute))
	sb.OnSQLEffect(rep.ApplyEffect)

	for i := 0; i < 20; i++ {
		mustExec("INSERT INTO t VALUES (NEXTVAL('ids'), ?)", sqldb.Str(fmt.Sprintf("row%d", i)))
	}
	if _, err := s.ExecNamed("UPDATE t SET v = @v WHERE id = @id",
		map[string]sqldb.Value{"v": sqldb.Str("patched"), "id": sqldb.Int(3)}); err != nil {
		t.Fatal(err)
	}
	mustExec("DELETE FROM t WHERE id = ?", sqldb.Int(5))

	if _, err := sb.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Complete(sb); err != nil {
		t.Fatalf("stream completeness: %v", err)
	}
	if rep.Skipped() == 0 {
		t.Fatal("bootstrap floor never skipped a change; floor wiring broken")
	}
	if pd, rd := primary.Dump(), rep.DB().Dump(); pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}

	// Reporting offload reads work; direct writes are refused.
	res, err := rep.DB().Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("replica read: %v", err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 20 {
		t.Fatalf("replica row count %d, want 20", n)
	}
	if _, err := rep.DB().Exec("INSERT INTO t VALUES (999, 'rogue')"); !errors.Is(err, sqldb.ErrReadOnly) {
		t.Fatalf("replica direct write: err = %v, want ErrReadOnly", err)
	}

	// More primary traffic, another catch-up: the replica keeps
	// following (rotation included).
	for i := 0; i < 20; i++ {
		mustExec("INSERT INTO t VALUES (NEXTVAL('ids'), ?)", sqldb.Str(fmt.Sprintf("late%d", i)))
	}
	if _, err := sb.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if rec.Rotations() == 0 {
		t.Fatal("test never rotated the WAL")
	}
	if pd, rd := primary.Dump(), rep.DB().Dump(); pd != rd {
		t.Fatalf("replica diverged after rotation:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}

	// Promotion lifts read-only mode.
	if n := rep.Promote(); n != 0 {
		t.Fatalf("promote aborted %d open txns, want 0", n)
	}
	if _, err := rep.DB().Exec("INSERT INTO t VALUES (999, 'promoted')"); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
}

// TestSQLReplicaAbortsOrphanTxnOnPromote: a primary that dies inside an
// explicit transaction leaves the replica's mirror session open; the
// replica's promotion rolls it back before serving writes.
func TestSQLReplicaAbortsOrphanTxnOnPromote(t *testing.T) {
	dir := t.TempDir()
	rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	primary := sqldb.Open("p")
	primary.MustExec("CREATE TABLE t (id INTEGER)")
	CaptureSQL(primary, rec)
	s := primary.Session()
	s.Exec("INSERT INTO t VALUES (1)")
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (2)")
	// ... primary dies here: COMMIT never happens.

	replica := sqldb.Open("r")
	replica.MustExec("CREATE TABLE t (id INTEGER)")
	rep := NewSQLReplica(replica, 0)
	sb := NewStandby(dir, OpenLease(dir, time.Minute))
	sb.OnSQLEffect(rep.ApplyEffect)
	if _, err := sb.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if rep.OpenTransactions() != 1 {
		t.Fatalf("open txns = %d, want 1", rep.OpenTransactions())
	}
	if n := rep.Promote(); n != 1 {
		t.Fatalf("promote aborted %d txns, want 1", n)
	}
	res := replica.MustExec("SELECT COUNT(*) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("replica has %d rows, want 1 (orphan txn rolled back)", n)
	}
}
