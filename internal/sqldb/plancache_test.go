package sqldb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// directExec parses sql without normalization and executes it — the
// unparameterized reference path the normalized plan cache must agree
// with bit-for-bit.
func directExec(t *testing.T, s *Session, sql string) (*Result, error) {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.execStmt(&parsedStmt{st: st, norm: sql, cache: CacheMiss}, nil, nil)
}

func seedFigureTables(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec("CREATE TABLE orders (id INT PRIMARY KEY, item TEXT, qty INT, price FLOAT)")
	db.MustExec("CREATE TABLE items (name TEXT PRIMARY KEY, approved BOOL)")
}

// TestNormalizedPlanReuseMatchesUnparameterized is the core property of
// the tentpole: for the literal-bearing statement shapes the figure
// workloads execute, running through the normalized plan cache must
// produce literally identical results to a fresh unnormalized parse —
// while literal variants of the same shape share one cached plan.
func TestNormalizedPlanReuseMatchesUnparameterized(t *testing.T) {
	cached := Open("norm-cached")
	ref := Open("norm-ref")
	seedFigureTables(t, cached)
	seedFigureTables(t, ref)
	cs, rs := cached.Session(), ref.Session()

	var workload []string
	for i := 1; i <= 20; i++ {
		workload = append(workload,
			fmt.Sprintf("INSERT INTO orders VALUES (%d, 'item-%d', %d, %d.5)", i, i%5, i*2, i),
			fmt.Sprintf("INSERT INTO items VALUES ('name-%d', %s)", i, map[bool]string{true: "TRUE", false: "FALSE"}[i%2 == 0]),
		)
	}
	workload = append(workload,
		"SELECT item, qty FROM orders WHERE qty > 10 ORDER BY 2, 1",
		"SELECT item, qty FROM orders WHERE qty > 30 ORDER BY 2, 1",
		"SELECT COUNT(*) AS n FROM orders WHERE price >= 2.0 AND price <= 15.0",
		"SELECT id FROM orders WHERE item IN ('item-1', 'item-3') ORDER BY 1",
		"SELECT id FROM orders WHERE qty = -4 OR id = 7 ORDER BY 1",
		"UPDATE orders SET qty = qty + 100 WHERE id <= 5",
		"UPDATE orders SET qty = qty + 200 WHERE id <= 9",
		"DELETE FROM orders WHERE id = 20",
		"SELECT item, SUM(qty) AS total FROM orders WHERE qty > 5 GROUP BY item ORDER BY 1",
		"SELECT o.id FROM orders o, items i WHERE o.item = 'item-2' AND i.approved = TRUE ORDER BY 1 LIMIT 3",
	)

	base := cached.StmtCacheStats()
	for _, sql := range workload {
		got, gerr := cs.Exec(sql)
		want, werr := directExec(t, rs, sql)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: cached err %v, reference err %v", sql, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) || got.RowsAffected != want.RowsAffected {
			t.Fatalf("%s: cached result diverged\n got: %+v %+v\nwant: %+v %+v", sql, got.Columns, got.Rows, want.Columns, want.Rows)
		}
	}
	after := cached.StmtCacheStats()
	// The 40 literal-variant INSERTs collapse onto 3 plans (TRUE/FALSE
	// are keywords, so the items INSERT keeps one plan per boolean); the
	// SELECT pair and UPDATE pair each share one. Far more hits than
	// misses.
	if hits := after.Hits - base.Hits; hits < 39 {
		t.Fatalf("literal variants did not share plans: %d hits over %d statements", hits, len(workload))
	}
	if misses := after.Misses - base.Misses; misses > 12 {
		t.Fatalf("too many misses for %d statements: %d", len(workload), misses)
	}
}

// TestNamedVsPositionalBindingAgree: the same predicate bound by name,
// by position, and inline as literals returns identical rows.
func TestNamedVsPositionalBindingAgree(t *testing.T) {
	db := Open("binding")
	seedFigureTables(t, db)
	s := db.Session()
	for i := 1; i <= 8; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, 'x', %d, 1.0)", i, i*10))
	}
	named, err := s.ExecNamed("SELECT id FROM orders WHERE qty > :q ORDER BY 1", map[string]Value{"q": Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	positional, err := s.Exec("SELECT id FROM orders WHERE qty > ? ORDER BY 1", Int(40))
	if err != nil {
		t.Fatal(err)
	}
	inline, err := s.Exec("SELECT id FROM orders WHERE qty > 40 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(named.Rows, positional.Rows) || !reflect.DeepEqual(positional.Rows, inline.Rows) {
		t.Fatalf("binding modes disagree: named %v positional %v inline %v", named.Rows, positional.Rows, inline.Rows)
	}
	if len(inline.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(inline.Rows))
	}
}

// TestNormalizationIdempotent: normalizing rendered normalized text is a
// no-op — the property that lets a replica re-resolve change-stream
// statements through the very same path as fresh client SQL.
func TestNormalizationIdempotent(t *testing.T) {
	for _, sql := range []string{
		"INSERT INTO orders VALUES (1, 'a', 2.5, TRUE)",
		"SELECT a FROM t WHERE b = 7 AND c = 'x' ORDER BY 1 LIMIT 10",
		"UPDATE t SET a = 3 WHERE b IN (1, 2, 3)",
		"DELETE FROM t WHERE a >= 1 AND a <= 9",
		"SELECT a FROM t WHERE b = ? AND c = :name",
	} {
		n1, ok := normalizeStmt(sql)
		if !ok {
			t.Fatalf("%s: not normalizable", sql)
		}
		n2, ok := normalizeStmt(n1.text)
		if !ok {
			t.Fatalf("%s: rendered text not normalizable", n1.text)
		}
		if n2.text != n1.text {
			t.Fatalf("not idempotent:\n first: %s\nsecond: %s", n1.text, n2.text)
		}
		if len(n2.consts) != 0 {
			t.Fatalf("%s: re-normalization extracted %d literals", n1.text, len(n2.consts))
		}
	}
}

// TestOrderByLiteralsNotSlotted: a bare integer in ORDER BY is a
// positional select-list reference; extracting it would silently change
// which column a cached plan sorts by.
func TestOrderByLiteralsNotSlotted(t *testing.T) {
	db := Open("orderby")
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	s := db.Session()
	db.MustExec("INSERT INTO t VALUES (1, 9)")
	db.MustExec("INSERT INTO t VALUES (2, 5)")

	byA, err := s.Exec("SELECT a, b FROM t ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	byB, err := s.Exec("SELECT a, b FROM t ORDER BY 2")
	if err != nil {
		t.Fatal(err)
	}
	if a0, _ := byA.Rows[0][0].AsInt(); a0 != 1 {
		t.Fatalf("ORDER BY 1 first row a = %d, want 1", a0)
	}
	if a0, _ := byB.Rows[0][0].AsInt(); a0 != 2 {
		t.Fatalf("ORDER BY 2 first row a = %d, want 2 (sorted by b)", a0)
	}
	// LIMIT ends the ORDER BY clause, so its literal is slotted again:
	// the two LIMIT variants share one normalized text.
	n1, _ := normalizeStmt("SELECT a FROM t ORDER BY 1 LIMIT 5")
	n2, _ := normalizeStmt("SELECT a FROM t ORDER BY 1 LIMIT 9")
	if n1.text != n2.text {
		t.Fatalf("LIMIT literals not shared:\n%s\n%s", n1.text, n2.text)
	}
	// ...while the ORDER BY positions stay distinct plans.
	o1, _ := normalizeStmt("SELECT a, b FROM t ORDER BY 1")
	o2, _ := normalizeStmt("SELECT a, b FROM t ORDER BY 2")
	if o1.text == o2.text {
		t.Fatal("ORDER BY positions wrongly collapsed onto one plan")
	}
}

// TestBatchedInsertMixedLiteralsAndParams: multi-row VALUES lists bind
// through one statement, with extracted literals and user placeholders
// interleaved in token order.
func TestBatchedInsertMixedLiteralsAndParams(t *testing.T) {
	db := Open("batch")
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	s := db.Session()

	res, err := s.Exec("INSERT INTO t VALUES (1, ?), (2, ?), (?, 'fixed')",
		Str("one"), Str("two"), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("rows affected = %d, want 3", res.RowsAffected)
	}
	r, err := s.Query("SELECT a, b FROM t ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"1", "one"}, {"2", "two"}, {"3", "fixed"}}
	for i, w := range want {
		if r.Rows[i][0].String() != w[0] || r.Rows[i][1].String() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, r.Rows[i], w)
		}
	}

	// A second batch with different literals reuses the same plan.
	base := db.StmtCacheStats()
	if _, err := s.Exec("INSERT INTO t VALUES (4, ?), (5, ?), (?, 'other')",
		Str("four"), Str("five"), Int(6)); err != nil {
		t.Fatal(err)
	}
	if cs := db.StmtCacheStats(); cs.Hits != base.Hits+1 {
		t.Fatalf("batched variant missed: hits %d -> %d", base.Hits, cs.Hits)
	}
}

// TestUndersuppliedParamsKeepLegacyNumbering: when the caller supplies
// fewer values than its own placeholders, the error must number the
// missing parameter among the *caller's* placeholders — unaffected by
// extracted literals shifting slot indexes.
func TestUndersuppliedParamsKeepLegacyNumbering(t *testing.T) {
	db := Open("undersupply")
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT)")
	s := db.Session()
	_, err := s.Exec("INSERT INTO t VALUES (1, ?, ?)", Int(2))
	if err == nil {
		t.Fatal("undersupplied exec succeeded")
	}
	if got := err.Error(); got != "sqldb: missing value for parameter 2" {
		t.Fatalf("error = %q, want legacy numbering among the caller's placeholders", got)
	}
}

// TestChangeStreamRoundTripWithLiterals: literal-bearing statements
// emitted as normalized text + merged params must replay identically on
// a replica, and legacy inline-literal changes (pre-normalization wire
// form) must still apply.
func TestChangeStreamRoundTripWithLiterals(t *testing.T) {
	primary := Open("cdc-primary")
	replica := Open("cdc-replica")
	for _, db := range []*DB{primary, replica} {
		db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	}

	var changes []Change
	primary.SetChangeSink(func(c Change) { changes = append(changes, c) })
	s := primary.Session()
	if _, err := s.Exec("INSERT INTO t VALUES (1, 'alpha')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (2, ?)", Str("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE t SET b = 'ALPHA' WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	primary.SetChangeSink(nil)

	a := NewApplier(replica, 0)
	for _, c := range changes {
		if err := a.Apply(c); err != nil {
			t.Fatalf("apply seq %d (%s): %v", c.Seq, c.SQL, err)
		}
	}
	// A legacy change carrying inline literals (as an old primary would
	// have journaled) re-extracts through the same path.
	legacy := Change{Seq: changes[len(changes)-1].Seq + 1, Session: changes[0].Session,
		Kind: "INSERT", SQL: "INSERT INTO t VALUES (3, 'legacy')"}
	if err := a.Apply(legacy); err != nil {
		t.Fatalf("legacy inline-literal change: %v", err)
	}

	prim, err := primary.Session().Query("SELECT a, b FROM t ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Session().Query("SELECT a, b FROM t ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(prim.Rows)+1 {
		t.Fatalf("replica rows = %d, want %d", len(rep.Rows), len(prim.Rows)+1)
	}
	for i, prow := range prim.Rows {
		if !reflect.DeepEqual(prow, rep.Rows[i]) {
			t.Fatalf("row %d diverged: primary %v replica %v", i, prow, rep.Rows[i])
		}
	}
	if rep.Rows[len(rep.Rows)-1][1].String() != "legacy" {
		t.Fatalf("legacy change row = %v", rep.Rows[len(rep.Rows)-1])
	}
}

// TestPreparedParseChargeNotRearmedAfterConsume: once a successful
// execution has reported the one-time parse charge, a later refused
// attempt must not bring it back — the execution after the refusal
// reports zero parse.
func TestPreparedParseChargeNotRearmedAfterConsume(t *testing.T) {
	db := Open("prep-rearm")
	db.MustExec("CREATE TABLE t (a INT)")
	s := db.Session()
	var stats []StmtStats
	s.sink = func(st StmtStats) { stats = append(stats, st) }

	ps, err := s.Prepare("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if ps.parse.Load() <= 0 {
		t.Fatal("prepared statement carries no parse charge")
	}
	if _, err := ps.Exec(); err != nil { // consumes the charge
		t.Fatal(err)
	}
	db.SetExecHook(func(string) error { return fmt.Errorf("chaos: refused") })
	if _, err := ps.Exec(); err == nil {
		t.Fatal("hook refusal did not surface")
	}
	db.SetExecHook(nil)
	if _, err := ps.Exec(); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats emitted = %d, want 2", len(stats))
	}
	if stats[0].Parse <= 0 {
		t.Fatalf("first execution must carry the parse charge, got %v", stats[0].Parse)
	}
	if stats[1].Parse != 0 {
		t.Fatalf("parse charge double-counted after a refusal: %v", stats[1].Parse)
	}
}

// TestPreparedParseChargeSurvivesRefusal: a refused execution never
// takes the charge, so the first execution that runs still reports it.
func TestPreparedParseChargeSurvivesRefusal(t *testing.T) {
	db := Open("prep-refuse")
	db.MustExec("CREATE TABLE t (a INT)")
	s := db.Session()
	var stats []StmtStats
	s.sink = func(st StmtStats) { stats = append(stats, st) }

	ps, err := s.Prepare("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	refuse := true
	db.SetExecHook(func(string) error {
		if refuse {
			refuse = false
			return fmt.Errorf("chaos: refused")
		}
		return nil
	})
	defer db.SetExecHook(nil)
	if _, err := ps.Exec(); err == nil {
		t.Fatal("hook refusal did not surface")
	}
	if _, err := ps.Exec(); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats emitted = %d, want 1 (refused exec emits none)", len(stats))
	}
	if stats[0].Parse <= 0 {
		t.Fatalf("parse charge lost across refusal: %v", stats[0].Parse)
	}
}

// TestCachedParseRaceLoserReportsHit pins the satellite-2 fix: when two
// sessions race to parse the same novel statement, the loser discards
// its parse and executes the winner's cached plan — so it must report a
// HIT with zero parse time, not charge the duration of a parse whose
// result was thrown away.
func TestCachedParseRaceLoserReportsHit(t *testing.T) {
	db := Open("parse-race")
	db.MustExec("CREATE TABLE t (a INT)")

	const sql = "SELECT a FROM t WHERE a = ?"
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	parseRaceHook = func() {
		arrived <- struct{}{}
		<-release
	}
	defer func() { parseRaceHook = nil }()

	base := db.StmtCacheStats()
	var mu sync.Mutex
	var stats []StmtStats
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			s.sink = func(st StmtStats) {
				mu.Lock()
				stats = append(stats, st)
				mu.Unlock()
			}
			if _, err := s.Exec(sql, Int(1)); err != nil {
				panic(err)
			}
		}()
	}
	// Both goroutines have parsed (neither has inserted); release them to
	// race for the cache slot.
	<-arrived
	<-arrived
	close(release)
	wg.Wait()

	cs := db.StmtCacheStats()
	if d := cs.Misses - base.Misses; d != 1 {
		t.Fatalf("misses += %d, want 1 (only the winner parsed for keeps)", d)
	}
	if d := cs.Hits - base.Hits; d != 1 {
		t.Fatalf("hits += %d, want 1 (the loser adopted the winner's plan)", d)
	}
	if len(stats) != 2 {
		t.Fatalf("stats emitted = %d, want 2", len(stats))
	}
	var hit, miss *StmtStats
	for i := range stats {
		switch stats[i].Cache {
		case CacheHit:
			hit = &stats[i]
		case CacheMiss:
			miss = &stats[i]
		}
	}
	if hit == nil || miss == nil {
		t.Fatalf("want one hit and one miss, got %q and %q", stats[0].Cache, stats[1].Cache)
	}
	if hit.Parse != 0 {
		t.Fatalf("race loser charged its discarded parse: %v", hit.Parse)
	}
	if miss.Parse <= 0 {
		t.Fatalf("race winner must charge its parse, got %v", miss.Parse)
	}
}
