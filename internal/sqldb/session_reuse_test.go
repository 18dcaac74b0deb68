package sqldb

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// A session reuses its transaction, scope, latch set and parameter
// vector, and a slotted plan its probe and sort buffers, from statement
// to statement. What a statement returns must still be its own: these
// tests run statements on one long-lived session against the same
// statements on fresh sessions, share one session between goroutines,
// count what a statement allocates and check what idle state keeps.

// copyResult deep-copies a result as it was when returned.
func copyResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	c := &Result{Columns: slices.Clone(r.Columns), Rows: make([][]Value, len(r.Rows)), RowsAffected: r.RowsAffected}
	for i, row := range r.Rows {
		c.Rows[i] = slices.Clone(row)
	}
	if r.Rows == nil {
		c.Rows = nil
	}
	return c
}

// checkSessionReuse runs equivMix(seed) on one long-lived session, keeping
// every result and a copy of it, and on a twin database a new session
// per statement (one per transaction while BEGIN holds one open). Every
// kept result must end equal to its copy and to its twin's.
func checkSessionReuse(t testing.TB, seed int64) {
	mix := equivMix(seed)
	db, _ := equivDB()
	twinDB, _ := equivDB()
	long := db.Session()
	var twin *Session
	kept, copies, twins := make([]*Result, len(mix)), make([]*Result, len(mix)), make([]*Result, len(mix))
	for i, st := range mix {
		res, err := long.Exec(st.sql, st.params...)
		kept[i], copies[i] = res, copyResult(res)
		if twin == nil || !twin.InTransaction() {
			twin = twinDB.Session()
		}
		twinRes, twinErr := twin.Exec(st.sql, st.params...)
		twins[i] = twinRes
		if a, b := outcomeOf(res, err), outcomeOf(twinRes, twinErr); a.err != b.err {
			t.Fatalf("seed %d step %d %q %v: long-lived session %q, fresh session %q", seed, i, st.sql, st.params, a.err, b.err)
		}
	}
	for i, st := range mix {
		if !reflect.DeepEqual(kept[i], copies[i]) {
			t.Fatalf("seed %d step %d %q: the result changed after it was returned:\n got %+v\nwas %+v", seed, i, st.sql, kept[i], copies[i])
		}
		if !reflect.DeepEqual(kept[i], twins[i]) {
			t.Fatalf("seed %d step %d %q: long-lived session %+v, fresh session %+v", seed, i, st.sql, kept[i], twins[i])
		}
	}
	if got, want := db.Dump(), twinDB.Dump(); got != want {
		t.Fatalf("seed %d: databases diverged:\n%s\nwant:\n%s", seed, got, want)
	}
}

func TestLongLivedSessionMatchesFreshSessions(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		checkSessionReuse(t, seed)
	}
}

// FuzzSessionReuse is TestLongLivedSessionMatchesFreshSessions over any
// seed of the statement mix.
func FuzzSessionReuse(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Fuzz(func(t *testing.T, seed int64) { checkSessionReuse(t, seed) })
}

// TestSharedSessionResults: parallel Flow branches share one session.
// Eight goroutines run literal and bound point lookups, index probes and
// autocommit writes of their own rows on it; every result is checked
// when returned and again once all are done.
func TestSharedSessionResults(t *testing.T) {
	db := newReadDB(t, 512)
	db.MustExec("CREATE TABLE own (id INTEGER PRIMARY KEY, v INTEGER)")
	s := db.Session()
	const workers, rounds = 8, 60
	type kept struct {
		res, was *Result
	}
	var wg sync.WaitGroup
	results := make([][]kept, workers)
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("worker %d: "+format, append([]any{g}, args...)...)
			}
			for i := 0; i < rounds; i++ {
				id := int64(1 + (g*rounds+i)%512)
				var res *Result
				var err error
				if i%2 == 0 {
					res, err = s.Exec(readPointSQL, Int(id))
				} else {
					res, err = s.Exec("SELECT ItemID, Quantity FROM Orders WHERE OrderID = " + strconv.FormatInt(id, 10))
				}
				if err != nil || len(res.Rows) != 1 || res.Rows[0][1].I != 1+(id-1)*7%20 {
					fail("order %d: %v, %v", id, res, err)
					return
				}
				results[g] = append(results[g], kept{res, copyResult(res)})
				cust := id % 64
				if res, err = s.Exec(readTopKSQL, Int(cust)); err != nil || len(res.Rows) != 5 {
					fail("customer %d: %v, %v", cust, res, err)
					return
				}
				results[g] = append(results[g], kept{res, copyResult(res)})
				own := int64(g*rounds + i)
				if res, err = s.Exec(fmt.Sprintf("INSERT INTO own VALUES (%d, %d)", own, i)); err != nil || res.RowsAffected != 1 {
					fail("insert %d: %v, %v", i, res, err)
					return
				}
				if res, err = s.Exec("UPDATE own SET v = v + ? WHERE id = ?", Int(1), Int(own)); err != nil || res.RowsAffected != 1 {
					fail("update %d: %v, %v", i, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g, rs := range results {
		for i, r := range rs {
			if !reflect.DeepEqual(r.res, r.was) {
				t.Fatalf("worker %d result %d changed after it was returned: %+v, was %+v", g, i, r.res, r.was)
			}
		}
	}
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(v) FROM own")
	if n, sum := res.Rows[0][0].I, res.Rows[0][1].I; n != workers*rounds || sum != workers*(rounds*(rounds-1)/2+rounds) {
		t.Fatalf("own holds %d rows summing to %d", n, sum)
	}
}

// TestStatementAllocs: an autocommit statement allocates what it
// returns — a point SELECT its Result, Rows and one row's backing —
// and the writes a few objects for the versions and index entries they
// add. The ceilings are the readings when they were set.
func TestStatementAllocs(t *testing.T) {
	s := newReadDB(t, 4096).Session()
	next := int64(5000)
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"point/bound", 3, func() error { _, err := s.Exec(readPointSQL, Int(77)); return err }},
		{"point/literal", 3, func() error {
			_, err := s.Exec("SELECT ItemID, Quantity FROM Orders WHERE OrderID = 77")
			return err
		}},
		{"index-top5", 3, func() error { _, err := s.Exec(readTopKSQL, Int(7)); return err }},
		{"join", 3, func() error { _, err := s.Exec(readJoinSQL, readRegions[next%4]); next++; return err }},
		{"call", 3, func() error { _, err := s.Exec("CALL approved_totals()"); return err }},
		{"update-pk", 5, func() error {
			_, err := s.Exec("UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderID = ?", Int(77))
			return err
		}},
		{"insert", 7, func() error {
			next++
			_, err := s.Exec("INSERT INTO Orders VALUES (?, ?, ?, ?, ?)", Int(next), Int(next%512), Str("item1000"), Int(1), Bool(true))
			return err
		}},
		{"begin-update-commit", 7, func() error {
			for _, sql := range []string{"BEGIN", "UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderID = 78", "COMMIT"} {
				if _, err := s.Exec(sql); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		var err error
		n := testing.AllocsPerRun(200, func() {
			if e := c.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.1f objects", c.name, n)
		if n > c.max {
			t.Errorf("%s: %.1f objects per statement, ceiling %.0f", c.name, n, c.max)
		}
	}
}

// TestResultBackingFollowsItsRows: a slotted SELECT sizes its output
// from the rows its last run emitted, yet every Result holds at most
// twice its rows — in its Rows slice and in the backing its rows are cut
// from — after a larger run as after a smaller one. The backing is
// measured as the live heap a Result keeps.
func TestResultBackingFollowsItsRows(t *testing.T) {
	const width = 4 // Values per row
	db := Open("backing")
	db.MustExec("CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c INTEGER)")
	s := db.Session()
	for i := 0; i < 1000; i++ {
		if _, err := s.Exec("INSERT INTO r VALUES (?, ?, ?, ?)", Int(int64(i)), Int(1), Int(2), Int(3)); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT id, a, b, c FROM r WHERE id < ?"
	run := func(rows int) (*Result, int) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		before := int(m.HeapAlloc)
		res, err := s.Exec(sql, Int(int64(rows)))
		if err != nil || len(res.Rows) != rows {
			t.Fatalf("%d rows: %v, %v", rows, res, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(res)
		return res, int(m.HeapAlloc) - before
	}
	run(1000) // plans the text, and grows what the table and plan keep for a scan
	for _, rows := range []int{1000, 1, 1000, 3} {
		res, held := run(rows)
		if n := len(res.Rows); cap(res.Rows) > 2*n+1 {
			t.Errorf("%d rows in a Rows slice of %d", n, cap(res.Rows))
		}
		// Twice the rows' values and slice headers, the Result, and a
		// margin for what the runtime itself allocated meanwhile.
		limit := 2*rows*width*int(unsafe.Sizeof(Value{})) + (2*rows+1)*int(unsafe.Sizeof([]Value{})) + 8<<10
		if held > limit {
			t.Errorf("a %d-row Result holds %d bytes, more than %d", rows, held, limit)
		}
		t.Logf("%d rows: %d bytes held", rows, held)
	}
}

// TestIdleStateHoldsNoRows: after a probe of a 10 000-version bucket with
// an ORDER BY, a 10 000-row INSERT, a statement bound with 2 000 values
// and a hash join over 10 000 keys, neither the idle plans nor the
// session reference a row version, and none keeps a buffer — a join's
// row list, key dictionary or buckets among them — past idleCap entries.
func TestIdleStateHoldsNoRows(t *testing.T) {
	const n = 10000
	db := Open("idle")
	db.MustExec("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, v VARCHAR)")
	db.MustExec("CREATE INDEX big_k ON big (k)")
	db.MustExec("CREATE TABLE copy (id INTEGER, k INTEGER, v VARCHAR)")
	s := db.Session()
	for i := 0; i < n; i++ {
		if _, err := s.Exec("INSERT INTO big VALUES (?, 1, ?)", Int(int64(i)), Str(fmt.Sprint("v", n-i))); err != nil {
			t.Fatal(err)
		}
	}
	var idle []*selectPlan
	lendHook = func(p *selectPlan, held bool) {
		if !held {
			idle = append(idle, p)
		}
	}
	defer func() { lendHook = nil }()
	if res, err := s.Exec("SELECT id, v FROM big WHERE k = ? ORDER BY v", Int(1)); err != nil || len(res.Rows) != n {
		t.Fatalf("probe: %v", err)
	}
	if res, err := s.Exec("INSERT INTO copy SELECT id, k, v FROM big WHERE k = 1"); err != nil || res.RowsAffected != n {
		t.Fatalf("insert: %v", err)
	}
	if _, err := s.Exec("UPDATE big SET v = ? WHERE id = ?", make([]Value, 2000)...); err != nil {
		t.Fatal(err)
	}
	// A hash join whose inner, copy, holds 10 000 distinct keys.
	if res, err := s.Exec("SELECT b.id, c.v FROM big b JOIN copy c ON c.id = b.id WHERE b.k = ?", Int(1)); err != nil || len(res.Rows) != n {
		t.Fatalf("join: %v", err)
	}
	if len(idle) != 4 {
		t.Fatalf("%d plans given back, want 4", len(idle))
	}
	if src := &idle[3].srcs[1]; src.strategy != joinHash {
		t.Fatalf("the join's strategy is %d, want a hash join", src.strategy)
	}
	for _, p := range slices.Concat(idle[0].tree.plans, idle[1].tree.plans, idle[2].tree.plans, idle[3].tree.plans) {
		checkIdleGroups(t, p)
		checkIdleJoins(t, p)
		if p.rows != nil || p.env.row != nil {
			t.Errorf("idle plan holds %d output rows, row %v", len(p.rows), p.env.row)
		}
		checkIdleBuf(t, "plan sort keys", p.keys)
		checkIdleBuf(t, "plan sort permutation", p.perm)
		for k := range p.srcs {
			src := &p.srcs[k]
			checkIdleBuf(t, "plan probe copy", src.probe)
			if src.heap != nil || src.vals != nil {
				t.Errorf("idle plan's source %s holds %d versions, %d rows", src.name, len(src.heap), len(src.vals))
			}
		}
	}
	if s.txn != nil {
		t.Fatal("a transaction is still open")
	}
	checkIdleBuf(t, "session write set", s.tx.ws)
	checkIdleBuf(t, "session latch set", s.latches)
	checkIdleBuf(t, "session parameters", s.params)
	if !reflect.ValueOf(s.scope).IsZero() {
		t.Errorf("session scope holds %+v", s.scope)
	}
}

// checkIdleBuf fails if an idle buffer holds anything, in its length or
// past it, or keeps more than idleCap entries.
func checkIdleBuf[T comparable](t *testing.T, what string, b []T) {
	t.Helper()
	if cap(b) > idleCap {
		t.Errorf("%s keeps %d entries, more than %d", what, cap(b), idleCap)
	}
	var zero T
	for i, v := range b[:cap(b)] {
		if v != zero {
			t.Errorf("%s holds %+v at %d of %d", what, v, i, len(b))
			return
		}
	}
}

// TestCommitLatchesInNameOrder: COMMIT latches its write set's tables in
// the order a DML footprint over the same tables does — by lowercased
// name, the deadlock-avoidance rule — however their names are cased.
func TestCommitLatchesInNameOrder(t *testing.T) {
	db := Open("order")
	db.MustExec("CREATE TABLE Zeta (id INTEGER)")
	db.MustExec("CREATE TABLE alpha (id INTEGER)")
	db.MustExec("CREATE PROCEDURE fill_both () AS 'INSERT INTO Zeta VALUES (1); INSERT INTO alpha VALUES (1)'")
	s := db.Session()
	names := func(fp []latchTarget) (out []string) {
		for _, lt := range fp {
			out = append(out, lt.t.Name)
		}
		return out
	}
	dml, ok := db.stmtFootprint(nil, &CallStmt{Name: "fill_both"}, nil, nil)
	if !ok {
		t.Fatal("the CALL's footprint is not static")
	}
	for _, sql := range []string{"BEGIN", "INSERT INTO Zeta VALUES (2)", "INSERT INTO alpha VALUES (2)", "INSERT INTO Zeta VALUES (3)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	commit, _ := db.stmtFootprint(nil, &CommitStmt{}, s.txn, nil)
	if got, want := names(commit), names(dml); !slices.Equal(got, want) || !slices.Equal(want, []string{"alpha", "Zeta"}) {
		t.Fatalf("COMMIT latches %v, the DML footprint %v; want [alpha Zeta] for both", got, want)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestProcedureBodyKeepsTheCallScope: a CALL's body runs its statements
// in scopes of their own; the session's scope is still the CALL's while
// they run, and a CALL nested in a body runs its own body one kept scope
// further in.
func TestProcedureBodyKeepsTheCallScope(t *testing.T) {
	db, _ := equivDB()
	s := db.Session()
	for _, st := range equivMix(1) {
		if !strings.HasPrefix(st.sql, "CREATE") {
			break
		}
		if _, err := s.Exec(st.sql, st.params...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("INSERT INTO orders VALUES (1, 'bolt', 5)"); err != nil {
		t.Fatal(err)
	}
	bodyPlans := 0
	lendHook = func(p *selectPlan, held bool) {
		if held && p.q != nil && p.q.From[0].Table == "orders" {
			bodyPlans++
			if s.scope.session != s || s.inner == nil || s.inner.session != s {
				t.Error("the CALL's scope is not held while its body runs one kept scope further in")
			}
		}
	}
	defer func() { lendHook = nil }()
	if res, err := s.Exec("CALL restock1()"); err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 9 {
		t.Fatalf("CALL restock1: %v, %v", res, err)
	}
	if bodyPlans == 0 {
		t.Fatal("no body statement was planned; the test proves nothing")
	}

	// A CALL inside a body holds that body's scope in turn: the nested
	// body runs one depth further in, and every scope is free afterwards.
	if _, err := s.Exec("CREATE PROCEDURE restock_twice () AS 'CALL restock1(); CALL restock1()'"); err != nil {
		t.Fatal(err)
	}
	bodyPlans = 0
	lendHook = func(p *selectPlan, held bool) {
		if held && p.q != nil && p.q.From[0].Table == "orders" {
			bodyPlans++
			if s.scope.session != s {
				t.Error("the CALL's scope is not held while its nested body runs")
			}
			if in := s.inner; in == nil || in.session != s || in.next == nil || in.next.session != s || in.next.next != nil {
				t.Error("a nested body statement does not run two kept scopes deep")
			}
		}
	}
	if res, err := s.Exec("CALL restock_twice()"); err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 17 {
		t.Fatalf("CALL restock_twice: %v, %v", res, err)
	}
	if bodyPlans == 0 {
		t.Fatal("no nested body statement was planned; the test proves nothing")
	}
	if s.scope.session != nil || s.inner.session != nil || s.inner.next.session != nil {
		t.Fatal("a scope is still held after the CALL returned")
	}
}
