package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSnapshotIsolationHidesUncommittedRows pins the isolation upgrade:
// another session's open transaction is invisible (the engine was
// read-uncommitted before row versioning), the writer still sees its
// own writes, and commit/rollback publish/retract them atomically.
func TestSnapshotIsolationHidesUncommittedRows(t *testing.T) {
	db := Open("snap")
	db.MustExec("CREATE TABLE t (x INTEGER)")
	s1, s2 := db.Session(), db.Session()

	count := func(s *Session) int64 {
		t.Helper()
		res, err := s.Exec("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		return n
	}

	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if n := count(s2); n != 0 {
		t.Fatalf("uncommitted insert visible to another session: count = %d, want 0", n)
	}
	if n := count(s1); n != 1 {
		t.Fatalf("writer cannot see its own uncommitted insert: count = %d, want 1", n)
	}
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if n := count(s2); n != 1 {
		t.Fatalf("committed insert invisible: count = %d, want 1", n)
	}

	s1.Exec("BEGIN")
	s1.Exec("INSERT INTO t VALUES (2)")
	s1.Rollback()
	if n := count(s2); n != 1 {
		t.Fatalf("rolled-back insert leaked: count = %d, want 1", n)
	}
	if n := count(s1); n != 1 {
		t.Fatalf("writer still sees rolled-back insert: count = %d, want 1", n)
	}
}

// TestSameRowWritersFirstWriterWins: two explicit transactions updating
// the same row resolve first-writer-wins — the second writer gets a
// retryable ErrWriteConflict at statement time (no blocking until the
// winner commits), and the winner's value lands.
func TestSameRowWritersFirstWriterWins(t *testing.T) {
	db := Open("conflict")
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 0)")
	s1, s2 := db.Session(), db.Session()

	s1.Exec("BEGIN")
	s2.Exec("BEGIN")
	if _, err := s1.Exec("UPDATE t SET v = 1 WHERE id = 1"); err != nil {
		t.Fatalf("first writer: %v", err)
	}
	_, err := s2.Exec("UPDATE t SET v = 2 WHERE id = 1")
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second writer: err = %v, want ErrWriteConflict", err)
	}
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || !tmp.Temporary() {
		t.Fatalf("write conflict must classify as retryable, got %v", err)
	}
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	s2.Rollback()

	res := db.MustExec("SELECT v FROM t WHERE id = 1")
	if v, _ := res.Rows[0][0].AsInt(); v != 1 {
		t.Fatalf("v = %d, want 1 (first writer's value)", v)
	}
	if res := db.MustExec("SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 1 {
		t.Fatalf("row count = %v, want 1 (no duplicate versions visible)", res.Rows[0][0])
	}
	checkDBIndexes(t, db)
}

// TestAutocommitConflictRetryBothSucceed: autocommit statements retry
// internally on write conflict (backoff charged to lock-wait), so two
// racing single-statement writers both succeed — one simply runs
// second.
func TestAutocommitConflictRetryBothSucceed(t *testing.T) {
	db := Open("retry")
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 0)")

	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < 50; i++ {
				if _, err := s.Exec("UPDATE t SET v = ? WHERE id = 1", Int(int64(w*1000+i))); err != nil {
					t.Errorf("writer %d iter %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	res := db.MustExec("SELECT COUNT(*), SUM(v) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("visible rows = %d, want 1", n)
	}
	if v, _ := res.Rows[0][1].AsInt(); v != 1049 && v != 2049 {
		t.Fatalf("final v = %d, want one writer's last value (1049 or 2049)", v)
	}
	checkDBIndexes(t, db)
}

// TestSnapshotReadNotBlockedByWriteLock: a snapshot SELECT takes the
// shared engine lock alone, so a held writer lock does not stall it.
func TestSnapshotReadNotBlockedByWriteLock(t *testing.T) {
	db := Open("snapread")
	db.MustExec("CREATE TABLE a (x INTEGER)")
	db.MustExec("INSERT INTO a VALUES (1)")

	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	done := make(chan error, 1)
	go func() {
		res, err := db.Session().Exec("SELECT COUNT(*) FROM a")
		if err == nil {
			if n, _ := res.Rows[0][0].AsInt(); n != 1 {
				err = fmt.Errorf("count = %d, want 1", n)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot SELECT blocked behind the writer lock")
	}
}

// TestSnapshotScanStableUnderConcurrentCommits: a SELECT's snapshot is
// fixed at statement start, so a scan never observes a torn multi-row
// UPDATE — every row shows the same generation even while a writer
// commits new generations mid-scan.
func TestSnapshotScanStableUnderConcurrentCommits(t *testing.T) {
	db := Open("stable")
	db.MustExec("CREATE TABLE t (id INTEGER, v INTEGER)")
	const rows = 8
	for i := 0; i < rows; i++ {
		db.MustExec("INSERT INTO t VALUES (?, 0)", Int(int64(i)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.Session()
		for gen := 1; gen <= 300; gen++ {
			if _, err := s.Exec("UPDATE t SET v = ?", Int(int64(gen))); err != nil {
				t.Errorf("writer gen %d: %v", gen, err)
				break
			}
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Exec("SELECT v FROM t")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(res.Rows) != rows {
					t.Errorf("scan saw %d rows, want %d", len(res.Rows), rows)
					return
				}
				first, _ := res.Rows[0][0].AsInt()
				for _, row := range res.Rows {
					if v, _ := row[0].AsInt(); v != first {
						t.Errorf("torn scan: saw generations %d and %d in one SELECT", first, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExplainExecutorAgreementUnderContention: the plan EXPLAIN reports
// must be the plan the executor takes even while writers churn the
// table — index probes agree exactly; scans agree on access path (the
// row-count annotation legitimately moves).
func TestExplainExecutorAgreementUnderContention(t *testing.T) {
	db := Open("agree")
	db.MustExec("CREATE TABLE t (id INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX it ON t (id)")
	for i := 0; i < 50; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.Session()
		for i := 50; i < 250; i++ {
			if _, err := s.Exec("INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i))); err != nil {
				t.Errorf("writer: %v", err)
				break
			}
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			var last StmtStats
			s.SetStatsSink(func(st StmtStats) { last = st })
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Index probe: label carries no row count, must match exactly.
				res, err := s.Exec("EXPLAIN SELECT v FROM t WHERE id = ?", Int(5))
				if err != nil {
					t.Errorf("explain: %v", err)
					return
				}
				plan := res.Rows[0][0].S
				if _, err := s.Exec("SELECT v FROM t WHERE id = ?", Int(5)); err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if last.Plan != plan {
					t.Errorf("executor plan %q != EXPLAIN %q", last.Plan, plan)
					return
				}
				// Full scan: compare the access path, not the moving count.
				res, err = s.Exec("EXPLAIN SELECT v FROM t WHERE v < 0")
				if err != nil {
					t.Errorf("explain scan: %v", err)
					return
				}
				scanPlan := res.Rows[0][0].S
				if _, err := s.Exec("SELECT v FROM t WHERE v < 0"); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				const path = "SCAN t ("
				if len(last.Plan) < len(path) || last.Plan[:len(path)] != path ||
					len(scanPlan) < len(path) || scanPlan[:len(path)] != path {
					t.Errorf("scan access path mismatch: executor %q, EXPLAIN %q", last.Plan, scanPlan)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkDBIndexes(t, db)
}

// TestWriterLockWaitCountsInLockWait: time a statement spends blocked on
// the writer lock surfaces in StmtStats.LockWait.
func TestWriterLockWaitCountsInLockWait(t *testing.T) {
	db := Open("lockwait")
	db.MustExec("CREATE TABLE t (x INTEGER)")
	s := db.Session()
	var stats []StmtStats
	s.SetStatsSink(func(st StmtStats) { stats = append(stats, st) })

	db.writeMu.Lock()
	started := make(chan struct{})
	done := make(chan error)
	go func() {
		close(started)
		_, err := s.Exec("INSERT INTO t VALUES (1)")
		done <- err
	}()
	<-started
	time.Sleep(100 * time.Millisecond)
	db.writeMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if st := stats[len(stats)-1]; st.LockWait <= 0 {
		t.Fatalf("LockWait = %v, want > 0 (statement waited on the writer lock)", st.LockWait)
	}
}
