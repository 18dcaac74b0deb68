package sqldb

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestPoolDiscardsDirtyRelease: a leased session released inside an
// open transaction is rolled back and never leased again; a clean one is.
func TestPoolDiscardsDirtyRelease(t *testing.T) {
	db := Open("pool")
	db.MustExec("CREATE TABLE t (a INTEGER)")

	s := db.Lease()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s.Release() // dirty: rolled back and discarded
	if s.InTransaction() {
		t.Fatal("released session still holds its transaction")
	}

	s2 := db.Lease()
	if s2 == s {
		t.Fatal("a dirty session was leased again")
	}
	r, err := s2.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("dirty session's insert survived: %d rows", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s2.BindContext(ctx)
	s2.Release()
	if db.Lease() != s2 {
		t.Fatal("a clean session was not leased again")
	}
	if _, err := s2.Query("SELECT COUNT(*) AS n FROM t"); err != nil {
		t.Fatalf("a released session kept its budget: %v", err)
	}
}

// TestSessionBudgetRefusesAtBoundary: a session bound to an expired
// context refuses statements at the boundary with a permanent error.
func TestSessionBudgetRefusesAtBoundary(t *testing.T) {
	db := Open("budget")
	db.MustExec("CREATE TABLE t (a INTEGER)")
	s := db.Session()

	ctx, cancel := context.WithCancel(context.Background())
	s.BindContext(ctx)
	if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("statement with live budget: %v", err)
	}
	cancel()
	_, err := s.Exec("INSERT INTO t VALUES (2)")
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	// The refusal must classify permanent so retry policies stop.
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) || tmp.Temporary() {
		t.Fatalf("budget error must be permanent, got %v", err)
	}
	if db.DeadlineRefusals() != 1 {
		t.Fatalf("deadline refusals = %d, want 1", db.DeadlineRefusals())
	}
	// Only the first insert landed.
	s.BindContext(nil)
	r, err := s.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
}

// TestSessionBudgetPreparedStmtRearmsParse: a prepared statement whose
// execution was refused at the budget boundary re-arms its one-time
// parse charge, exactly like an ExecHook refusal.
func TestSessionBudgetPreparedStmtRearmsParse(t *testing.T) {
	db := Open("budget")
	db.MustExec("CREATE TABLE t (a INTEGER)")
	s := db.Session()
	var stats []StmtStats
	s.sink = func(st StmtStats) { stats = append(stats, st) }

	ps, err := s.Prepare("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.BindContext(ctx)
	if _, err := ps.Exec(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want budget refusal, got %v", err)
	}
	s.BindContext(nil)
	if _, err := ps.Exec(); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats emitted = %d, want 1 (refused exec emits none)", len(stats))
	}
	if stats[0].Parse <= 0 {
		t.Fatalf("parse charge lost across budget refusal: %v", stats[0].Parse)
	}
}

// TestStmtCacheLRUHotStatementSurvives: under capacity pressure from a
// churn of one-off SQL text, the hot statement stays cached (LRU
// eviction) instead of being lost to a full flush.
func TestStmtCacheLRUHotStatementSurvives(t *testing.T) {
	db := Open("lru")
	db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER)")
	s := db.Session()

	hot := "SELECT a FROM t WHERE b = ?"
	if _, err := s.Exec(hot, Int(1)); err != nil {
		t.Fatal(err)
	}

	// Interleave cold one-off statements with hot reuse, overflowing the
	// cache several times over. The cold text must differ STRUCTURALLY
	// (a distinct alias), not just in literal values — literal-only
	// variants normalize to one shared plan and would never fill the
	// cache.
	for i := 0; i < 3*stmtCacheCap; i++ {
		cold := fmt.Sprintf("SELECT a AS a%d FROM t WHERE a = %d", i, i)
		if _, err := s.Exec(cold); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			if _, err := s.Exec(hot, Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := db.StmtCacheStats()
	if cs.Size > stmtCacheCap {
		t.Fatalf("cache size %d exceeds cap %d", cs.Size, stmtCacheCap)
	}
	if cs.Evictions == 0 {
		t.Fatal("expected LRU evictions under pressure")
	}

	// The hot statement must still be a hit.
	before := db.StmtCacheStats().Hits
	if _, err := s.Exec(hot, Int(7)); err != nil {
		t.Fatal(err)
	}
	if after := db.StmtCacheStats().Hits; after != before+1 {
		t.Fatalf("hot statement was evicted: hits %d -> %d", before, after)
	}
}
