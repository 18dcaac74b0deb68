package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// streamTo installs a change sink on primary that forwards every change
// into the returned slice pointer (synchronously; tests are
// single-goroutine unless noted).
func captureChanges(db *DB) *[]Change {
	var changes []Change
	p := &changes
	db.SetChangeSink(func(c Change) { *p = append(*p, c) })
	return p
}

func TestChangeStreamReplaysOnReplica(t *testing.T) {
	primary := Open("p")
	changes := captureChanges(primary)

	s := primary.Session()
	mustExec := func(sql string, params ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR)")
	mustExec("CREATE SEQUENCE ids START WITH 10")
	mustExec("INSERT INTO t VALUES (NEXTVAL('ids'), ?)", Str("a"))
	mustExec("INSERT INTO t VALUES (NEXTVAL('ids'), ?)", Str("b"))
	mustExec("UPDATE t SET name = ? WHERE id = ?", Str("a2"), Int(10))
	if _, err := s.Exec("DELETE FROM t WHERE id = @id", Int(11)); err != nil {
		t.Fatal(err)
	}
	// SELECTs must not appear in the stream.
	if _, err := s.Query("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}

	replica := Open("r")
	ap := NewApplier(replica, 0)
	for _, c := range *changes {
		if c.Kind == "SELECT" {
			t.Fatalf("SELECT captured in change stream: %+v", c)
		}
		if err := ap.Apply(c); err != nil {
			t.Fatal(err)
		}
	}

	pd, rd := primary.Dump(), replica.Dump()
	if pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}
	// Sequence state must replicate too (NEXTVAL advanced identically).
	res, err := replica.Exec("SELECT NEXTVAL('ids')")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 12 {
		t.Fatalf("replica sequence at %d, want 12", n)
	}
}

// TestChangeStreamInterleavedTransactions: two primary sessions
// interleave explicit transactions, one commits and one rolls back; the
// applier routes by origin session so the replica converges to the
// committed state only.
func TestChangeStreamInterleavedTransactions(t *testing.T) {
	primary := Open("p")
	primary.MustExec("CREATE TABLE t (id INTEGER)")
	changes := captureChanges(primary)

	s1, s2 := primary.Session(), primary.Session()
	step := func(s *Session, sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	step(s1, "BEGIN")
	step(s2, "BEGIN")
	step(s1, "INSERT INTO t VALUES (1)")
	step(s2, "INSERT INTO t VALUES (100)")
	step(s1, "INSERT INTO t VALUES (2)")
	step(s2, "ROLLBACK")
	step(s1, "COMMIT")

	replica := Open("r")
	replica.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(replica, 0)
	for _, c := range *changes {
		if err := ap.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	res := replica.MustExec("SELECT COUNT(*) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("replica has %d rows, want 2 (s2's txn rolled back)", n)
	}
	if ap.OpenTransactions() != 0 {
		t.Fatalf("replica holds %d open txns after balanced stream", ap.OpenTransactions())
	}
}

// TestApplierAbortOpen: a primary that dies mid-transaction leaves the
// replica's matching session open; AbortOpen rolls it back.
func TestApplierAbortOpen(t *testing.T) {
	primary := Open("p")
	primary.MustExec("CREATE TABLE t (id INTEGER)")
	changes := captureChanges(primary)

	s := primary.Session()
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (1)")
	// ... primary crashes: no COMMIT ever captured.

	replica := Open("r")
	replica.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(replica, 0)
	for _, c := range *changes {
		if err := ap.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	if ap.OpenTransactions() != 1 {
		t.Fatalf("open txns = %d, want 1", ap.OpenTransactions())
	}
	if n := ap.AbortOpen(); n != 1 {
		t.Fatalf("AbortOpen rolled back %d, want 1", n)
	}
	res := replica.MustExec("SELECT COUNT(*) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("replica has %d rows after abort, want 0", n)
	}
}

// TestBootstrapFloorSkipsDumpedChanges: a replica bootstrapped from
// BootstrapState must not re-apply changes already contained in the dump.
func TestBootstrapFloorSkipsDumpedChanges(t *testing.T) {
	primary := Open("p")
	changes := captureChanges(primary)
	s := primary.Session()
	s.Exec("CREATE TABLE t (id INTEGER)")
	s.Exec("INSERT INTO t VALUES (1)")

	script, seq, _ := primary.BootstrapState()
	if seq != 2 {
		t.Fatalf("bootstrap seq = %d, want 2", seq)
	}

	s.Exec("INSERT INTO t VALUES (2)")

	replica := Open("r")
	if _, err := replica.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	ap := NewApplier(replica, seq)
	for _, c := range *changes {
		if err := ap.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	if ap.Skipped() != 2 || ap.Applied() != 1 {
		t.Fatalf("skipped=%d applied=%d, want 2/1", ap.Skipped(), ap.Applied())
	}
	res := replica.MustExec("SELECT COUNT(*) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("replica has %d rows, want 2 (no double-apply)", n)
	}
}

func TestReadOnlyReplicaRefusesWrites(t *testing.T) {
	db := Open("r")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	db.SetReadOnly(true)

	if _, err := db.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("INSERT on read-only replica: err = %v, want ErrReadOnly", err)
	}
	var tmp interface{ Temporary() bool }
	if err := func() error { _, err := db.Exec("DROP TABLE t"); return err }(); !errors.As(err, &tmp) || tmp.Temporary() {
		t.Fatalf("read-only refusal must be permanent, got %v", err)
	}
	// Reads still serve.
	if _, err := db.Exec("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("SELECT on read-only replica: %v", err)
	}
	// Applier sessions still write.
	ap := NewApplier(db, 0)
	if err := ap.Apply(Change{Seq: 1, Session: 7, Kind: "INSERT", SQL: "INSERT INTO t VALUES (1)"}); err != nil {
		t.Fatalf("applier write on read-only replica: %v", err)
	}
	db.SetReadOnly(false)
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatalf("write after leaving replica mode: %v", err)
	}
}

// TestChangeStreamCapturesPreparedAndCall: prepared statements carry
// their text into the stream; CALL replays the procedure on the
// replica.
func TestChangeStreamCapturesPreparedAndCall(t *testing.T) {
	primary := Open("p")
	changes := captureChanges(primary)
	s := primary.Session()
	s.Exec("CREATE TABLE t (id INTEGER, v VARCHAR)")
	s.Exec(`CREATE PROCEDURE bump () AS 'UPDATE t SET v = ''bumped'' WHERE id = 1'`)
	ps, err := s.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ps.Exec(Int(int64(i)), Str(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("CALL bump()"); err != nil {
		t.Fatal(err)
	}

	replica := Open("r")
	ap := NewApplier(replica, 0)
	for _, c := range *changes {
		if err := ap.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	if pd, rd := primary.Dump(), replica.Dump(); pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}
}

// TestRollbackAPICapturedInChangeStream is the regression test for the
// replication wedge: production layers abort transactions through the
// Session.Rollback API (not a ROLLBACK statement), and that rollback
// must reach the change stream — otherwise the replica's mapped session
// keeps its transaction open and the origin session's next BEGIN fails
// on the replica forever.
func TestRollbackAPICapturedInChangeStream(t *testing.T) {
	primary := Open("p")
	primary.MustExec("CREATE TABLE t (id INTEGER)")
	changes := captureChanges(primary)

	s := primary.Session()
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (1)")
	s.Rollback() // API rollback, the path bis/state.go and Session.Release use

	// A no-op rollback (no open transaction) must not emit anything.
	s.Rollback()
	if n := len(*changes); n != 3 {
		t.Fatalf("captured %d changes, want 3 (BEGIN, INSERT, ROLLBACK)", n)
	}
	if last := (*changes)[2]; last.Kind != "ROLLBACK" || last.SQL != "ROLLBACK" || last.Session != s.ID() {
		t.Fatalf("API rollback captured as %+v, want kind=ROLLBACK on session %d", last, s.ID())
	}
	// The stream stays dense across the API rollback.
	for i, c := range *changes {
		if c.Seq != int64(i)+1 {
			t.Fatalf("change %d has seq %d, want %d (dense)", i, c.Seq, i+1)
		}
	}

	// The same origin session transacts again: without the captured
	// rollback the replica would refuse this BEGIN ("transaction already
	// open") and redeliver it forever.
	s.Exec("BEGIN")
	s.Exec("INSERT INTO t VALUES (2)")
	s.Exec("COMMIT")

	replica := Open("r")
	replica.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(replica, 0)
	for _, c := range *changes {
		if err := ap.Apply(c); err != nil {
			t.Fatalf("apply %+v: %v", c, err)
		}
	}
	if ap.OpenTransactions() != 0 {
		t.Fatalf("replica holds %d open txns, want 0", ap.OpenTransactions())
	}
	if pd, rd := primary.Dump(), replica.Dump(); pd != rd {
		t.Fatalf("replica diverged:\nprimary:\n%s\nreplica:\n%s", pd, rd)
	}
}

// TestApplierSeqGapLatchesDivergence: a hole in the dense change
// sequence means a primary write was lost in transit; the applier must
// refuse to continue (stale reads beat silently wrong reads) and the
// refusal must latch.
func TestApplierSeqGapLatchesDivergence(t *testing.T) {
	db := Open("r")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(db, 0)
	ins := func(seq int64) Change {
		return Change{Seq: seq, Session: 1, Kind: "INSERT", SQL: "INSERT INTO t VALUES (1)"}
	}
	if err := ap.Apply(ins(1)); err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(ins(2)); err != nil {
		t.Fatal(err)
	}
	err := ap.Apply(ins(4)) // seq 3 never arrived
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("gap apply: err = %v, want ErrDiverged", err)
	}
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || tmp.Temporary() {
		t.Fatalf("divergence must be permanent, got %v", err)
	}
	// Latches: even a well-formed follow-up is refused.
	if err := ap.Apply(ins(5)); !errors.Is(err, ErrDiverged) {
		t.Fatalf("apply after divergence: err = %v, want latched ErrDiverged", err)
	}
	if ap.Fatal() == nil {
		t.Fatal("Fatal() nil after divergence")
	}
	// The gapped statement must not have been applied.
	res := db.MustExec("SELECT COUNT(*) FROM t")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("replica has %d rows, want 2 (post-gap writes refused)", n)
	}
}

// TestApplierStreamStartPastFloorDiverges: a bootstrapped replica whose
// first delivered change is beyond floor+1 has lost the records in
// between (pruned WAL segments) and must demand a re-bootstrap.
func TestApplierStreamStartPastFloorDiverges(t *testing.T) {
	db := Open("r")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(db, 3)
	err := ap.Apply(Change{Seq: 6, Session: 1, Kind: "INSERT", SQL: "INSERT INTO t VALUES (1)"})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("stream starting at 6 with floor 3: err = %v, want ErrDiverged", err)
	}
}

// TestApplierStraddledTransactionRollbackDiverges: a transaction open
// across the bootstrap point contributes nothing to the committed-only
// dump, and its post-floor statements auto-commit on a replica that was
// not primed (BootstrapState's pending statements dropped, no Prime). By
// the time its COMMIT or ROLLBACK arrives, the replica has no open
// transaction to resolve — and has already committed writes the
// primary's COMMIT would make visible atomically (or its ROLLBACK would
// undo). Either resolution must latch divergence.
func TestApplierStraddledTransactionRollbackDiverges(t *testing.T) {
	run := func(t *testing.T, finish func(s *Session)) (*Applier, error) {
		t.Helper()
		primary := Open("p")
		changes := captureChanges(primary)
		s := primary.Session()
		s.Exec("CREATE TABLE t (id INTEGER)")
		s.Exec("BEGIN")
		s.Exec("INSERT INTO t VALUES (1)")

		// Bootstrap mid-transaction WITHOUT priming: the committed-only
		// dump excludes the open transaction's row.
		script, seq, _ := primary.BootstrapState()
		if strings.Contains(script, "INSERT") {
			t.Fatalf("uncommitted row leaked into the dump:\n%s", script)
		}
		s.Exec("INSERT INTO t VALUES (2)")
		finish(s)

		replica := Open("r")
		if _, err := replica.ExecScript(script); err != nil {
			t.Fatal(err)
		}
		ap := NewApplier(replica, seq)
		var firstErr error
		for _, c := range *changes {
			if err := ap.Apply(c); err != nil {
				firstErr = err
				break
			}
		}
		return ap, firstErr
	}

	t.Run("rollback", func(t *testing.T) {
		ap, err := run(t, func(s *Session) { s.Rollback() })
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("straddled rollback: err = %v, want ErrDiverged", err)
		}
		if ap.Fatal() == nil {
			t.Fatal("Fatal() nil after straddled rollback")
		}
	})
	t.Run("commit", func(t *testing.T) {
		ap, err := run(t, func(s *Session) { s.Exec("COMMIT") })
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("straddled commit: err = %v, want ErrDiverged", err)
		}
		if ap.Fatal() == nil {
			t.Fatal("Fatal() nil after straddled commit")
		}
	})
}

// TestBootstrapStatePrimedStraddleConverges: the supported path for a
// mid-transaction bootstrap. BootstrapState returns the committed-only
// dump (no uncommitted rows — the rollback case proves the primary can
// still undo them), the floor, and the open transaction's pending
// statements; Prime re-opens the transaction on the replica, so its
// eventual COMMIT or ROLLBACK replays cleanly and the replica converges
// on the primary's final state either way.
func TestBootstrapStatePrimedStraddleConverges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finish func(s *Session)
	}{
		{"commit", func(s *Session) { s.Exec("COMMIT") }},
		{"rollback", func(s *Session) { s.Rollback() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := Open("p")
			changes := captureChanges(primary)
			s := primary.Session()
			s.Exec("CREATE TABLE t (id INTEGER)")
			s.Exec("BEGIN")
			s.Exec("INSERT INTO t VALUES (1)")

			script, floor, pending := primary.BootstrapState()
			if strings.Contains(script, "INSERT") {
				t.Fatalf("uncommitted row leaked into the bootstrap dump:\n%s", script)
			}
			if len(pending) != 2 { // BEGIN + INSERT
				t.Fatalf("pending = %d changes, want 2 (BEGIN + INSERT)", len(pending))
			}

			s.Exec("INSERT INTO t VALUES (2)")
			tc.finish(s)

			replica := Open("r")
			if _, err := replica.ExecScript(script); err != nil {
				t.Fatal(err)
			}
			ap := NewApplier(replica, floor)
			if err := ap.Prime(pending); err != nil {
				t.Fatalf("prime: %v", err)
			}
			if got := ap.OpenTransactions(); got != 1 {
				t.Fatalf("open transactions after prime = %d, want 1", got)
			}
			for _, c := range *changes {
				if err := ap.Apply(c); err != nil {
					t.Fatalf("apply seq %d (%s): %v", c.Seq, c.Kind, err)
				}
			}
			if ap.Fatal() != nil {
				t.Fatalf("primed straddle latched divergence: %v", ap.Fatal())
			}
			if pd, rd := primary.Dump(), replica.Dump(); pd != rd {
				t.Fatalf("replica diverged on primed straddled %s:\nprimary:\n%s\nreplica:\n%s", tc.name, pd, rd)
			}
		})
	}
}

// TestApplierBeginWhileOpenDiverges: a BEGIN for an origin session the
// replica still holds open means a rollback was lost upstream; guessing
// would risk undoing a lost COMMIT instead, so the applier refuses.
func TestApplierBeginWhileOpenDiverges(t *testing.T) {
	db := Open("r")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	ap := NewApplier(db, 0)
	seq := int64(0)
	next := func(kind, sql string) Change {
		seq++
		return Change{Seq: seq, Session: 9, Kind: kind, SQL: sql}
	}
	if err := ap.Apply(next("BEGIN", "BEGIN")); err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(next("INSERT", "INSERT INTO t VALUES (1)")); err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(next("BEGIN", "BEGIN")); !errors.Is(err, ErrDiverged) {
		t.Fatalf("BEGIN while open: err = %v, want ErrDiverged", err)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(-42), Int(1 << 60), Float(3.25), Float(-0.5),
		Str(""), Str("plain"), Str("i:tricky=с:утф"), Bool(true), Bool(false),
	}
	for _, v := range vals {
		got, err := DecodeValue(EncodeValue(v))
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	if _, err := DecodeValue("x:bogus"); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
}
