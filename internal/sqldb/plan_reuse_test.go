package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Plan reuse (slot.go): a plan kept in its statement's slot and re-bound
// per execution must give exactly what a plan built for that execution
// gives. The fresh side is a Prepare of the same text, whose slot starts
// empty; the reused side is the statement cache's entry for the text.

// sameRun compares a reused execution's outcome with a fresh one's:
// the same error, or the same rows in the same order.
func sameRun(got *Result, gotErr error, want *Result, wantErr error) string {
	if errText(gotErr) != errText(wantErr) {
		return fmt.Sprintf("error %q vs %q", errText(gotErr), errText(wantErr))
	}
	if gotErr != nil {
		return ""
	}
	if got.RowsAffected != want.RowsAffected {
		return fmt.Sprintf("%d rows affected vs %d", got.RowsAffected, want.RowsAffected)
	}
	return diffResults(got, want, true)
}

// freshExec runs text on a plan built for this execution alone.
func freshExec(s *Session, text string, params []Value) (*Result, error) {
	ps, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	return ps.Exec(params...)
}

// TestReusedPlanMatchesFreshPlan draws SELECTs from the materializing
// oracle's generator (slowselect_test.go), turns their literals into the
// bind slots of one cached text each, and executes every text again and
// again with fresh parameter values, from a session holding uncommitted
// changes and from one that cannot see them. Between executions it runs
// DDL a kept plan must not outlive: an index created (which flips the
// chosen index), a table dropped and created again under the same name
// with fewer indexes, and the procedure the loop CALLs redefined. Every
// reused execution, and its EXPLAIN, must equal a fresh plan's.
func TestReusedPlanMatchesFreshPlan(t *testing.T) {
	const seeds, textsPerSeed, rounds = 200, 4, 6
	var runs, reused int
	rebuilt := map[string]int{} // DDL kind → executions right after it that planned afresh
	for seed := int64(1); seed <= seeds; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		db := Open("reuse")
		for _, tbl := range slowTables {
			db.MustExec(tbl.ddl)
		}
		db.MustExec("CREATE PROCEDURE pv () AS 'SELECT id, k FROM ta WHERE k > 1 ORDER BY id'")
		indexes := map[string]bool{}
		for _, ddl := range slowIndexes {
			if g.oneIn(2) {
				db.MustExec(ddl)
				indexes[ddl] = true
			}
		}
		insert := func(s *Session, tbl, id int) {
			t.Helper()
			cols, vals := []string{}, []string{fmt.Sprint(id)}
			for _, c := range slowTables[tbl].cols {
				name, _, _ := strings.Cut(c, ":")
				cols = append(cols, name)
			}
			for _, c := range slowTables[tbl].cols[1:] {
				vals = append(vals, g.slowLit(c[len(c)-1:], true))
			}
			sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", slowTables[tbl].name, strings.Join(cols, ", "), strings.Join(vals, ", "))
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		committed, pending := db.Session(), db.Session()
		for tbl := range slowTables {
			for id := g.rng.Intn(10); id > 0; id-- {
				insert(committed, tbl, id)
			}
		}
		pending.Exec("BEGIN")
		for tbl := range slowTables {
			insert(pending, tbl, 11+g.rng.Intn(3))
		}

		type text struct {
			sql    string
			params []Value
		}
		texts := []text{{"SELECT * FROM ta WHERE k = ?", []Value{Int(1)}}}
		for len(texts) < textsPerSeed+1 {
			sql, _, _ := g.slowQuery()
			if n, ok := normalizeStmt(sql); ok {
				texts = append(texts, text{n.text, n.consts})
			}
		}
		proc := ">"
		for round := 0; round < rounds; round++ {
			ddl := ""
			switch g.rng.Intn(6) {
			case 0, 1:
				if ix := slowIndexes[g.rng.Intn(len(slowIndexes))]; !indexes[ix] {
					db.MustExec(ix)
					indexes[ix], ddl = true, "index"
				}
			case 2:
				// tc re-created, each of its indexes kept or dropped.
				db.MustExec("DROP TABLE tc")
				db.MustExec(slowTables[2].ddl)
				for ix := range indexes {
					if indexes[ix] && strings.Contains(ix, " ON tc ") {
						if indexes[ix] = g.oneIn(2); indexes[ix] {
							db.MustExec(ix)
						}
					}
				}
				for id := g.rng.Intn(10); id > 0; id-- {
					insert(committed, 2, id)
				}
				ddl = "table"
			case 3:
				proc = map[string]string{">": ">=", ">=": ">"}[proc]
				db.MustExec("DROP PROCEDURE pv")
				db.MustExec("CREATE PROCEDURE pv () AS 'SELECT id, k FROM ta WHERE k " + proc + " 1 ORDER BY id'")
				ddl = "procedure"
			}
			for i := range texts {
				tx := &texts[i]
				for j := range tx.params {
					tx.params[j] = g.value(tx.params[j].K)
				}
				for _, s := range []*Session{pending, committed} {
					before := db.StmtCacheStats().Compiles
					got, gotErr := s.Exec(tx.sql, tx.params...)
					if db.StmtCacheStats().Compiles == before {
						reused++
					} else if ddl != "" {
						rebuilt[ddl]++
					}
					runs++
					want, wantErr := freshExec(s, tx.sql, tx.params)
					if d := sameRun(got, gotErr, want, wantErr); d != "" {
						t.Fatalf("seed %d round %d (after %q DDL): reused plan differs: %s\n  %s %v", seed, round, ddl, d, tx.sql, tx.params)
					}
					got, gotErr = s.Exec("EXPLAIN "+tx.sql, tx.params...)
					want, wantErr = freshExec(s, "EXPLAIN "+tx.sql, tx.params)
					if d := sameRun(got, gotErr, want, wantErr); d != "" {
						t.Fatalf("seed %d round %d (after %q DDL): reused EXPLAIN differs: %s\n  %s", seed, round, ddl, d, tx.sql)
					}
				}
			}
			for _, s := range []*Session{pending, committed} {
				got, gotErr := s.Exec("CALL pv()")
				want, wantErr := freshExec(s, "SELECT id, k FROM ta WHERE k "+proc+" 1 ORDER BY id", nil)
				if d := sameRun(got, gotErr, want, wantErr); d != "" {
					t.Fatalf("seed %d round %d (after %q DDL): procedure body differs: %s", seed, round, ddl, d)
				}
			}
		}
		pending.Rollback()
	}
	t.Logf("%d executions, %d on a reused plan; rebuilt after DDL: %v", runs, reused, rebuilt)
	// Redefining the procedure rebuilds no plan: no SELECT reads one.
	if reused < runs/2 || rebuilt["index"] == 0 || rebuilt["table"] == 0 {
		t.Fatalf("degenerate: %d of %d executions reused a plan, rebuilds after DDL %v", reused, runs, rebuilt)
	}
}

// TestProcedureDDLKeepsSlottedPlans: creating, dropping or registering a
// procedure changes nothing a slotted plan read, so a cached SELECT run
// before and after it plans once.
func TestProcedureDDLKeepsSlottedPlans(t *testing.T) {
	db := newReadDB(t, 64)
	s := db.Session()
	run := func() {
		t.Helper()
		if _, err := s.Exec(readPointSQL, Int(7)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := db.StmtCacheStats().Compiles
	for _, ddl := range []string{
		"CREATE PROCEDURE p_keep () AS 'SELECT OrderID FROM Orders'",
		"DROP PROCEDURE p_keep",
	} {
		db.MustExec(ddl)
		run()
	}
	db.RegisterProcedure("p_native", func(*Session) (*Result, error) { return &Result{}, nil })
	run()
	if got := db.StmtCacheStats().Compiles - before; got != 0 {
		t.Errorf("procedure DDL re-planned a slotted SELECT %d times", got)
	}
}

// TestThousandRebindingsMatchFreshPrepare is the re-binding arm at the
// benchmark's statement classes and the one-shot expressions that compile
// with their statement: 1 000 executions of cached SELECT, UPDATE, DELETE,
// INSERT (with and without a column list, multi-row, a NEXTVAL cell), CALL
// (SQL and native procedure) and LIMIT ? texts with random parameters,
// each equal to a fresh Prepare of its text (writes compared by their
// effect on the tables, inside a transaction rolled back after each side,
// from the same sequence state). A parameter the caller leaves out is
// still reported by the caller's own number.
func TestThousandRebindingsMatchFreshPrepare(t *testing.T) {
	db := newReadDB(t, 256)
	db.MustExec("CREATE SEQUENCE log_seq")
	db.MustExec("CREATE TABLE Log (ID INTEGER, Note VARCHAR, Qty INTEGER, Seq INTEGER)")
	db.MustExec("CREATE PROCEDURE add_log () AS 'INSERT INTO Log (ID, Qty, Seq) VALUES (3, 7, NEXTVAL(''log_seq'')); SELECT ID, Qty, Seq FROM Log WHERE ID = 3 ORDER BY Seq'")
	db.RegisterProcedure("log_note", func(s *Session) (*Result, error) {
		return s.Exec("INSERT INTO Log (ID, Note) VALUES (?, ?)", Int(5), Str("native"))
	})
	s := db.Session()
	rng := rand.New(rand.NewSource(7))
	custs := func() Value { return Int(int64(rng.Intn(40))) }
	qty := func() Value { // now and then one an INTEGER column refuses
		if rng.Intn(8) == 0 {
			return Str("many")
		}
		return Int(int64(rng.Intn(20)))
	}
	note := func() Value { return Str(fmt.Sprint("note", rng.Intn(3))) }
	texts := []struct {
		sql    string
		params func() []Value
	}{
		{readAggSQL, func() []Value { return []Value{Int(int64(rng.Intn(22)))} }},
		{readPointSQL, func() []Value { return []Value{Int(int64(rng.Intn(300)))} }},
		{readTopKSQL, func() []Value { return []Value{custs()} }},
		{readJoinSQL, func() []Value { return []Value{Str(fmt.Sprint("region", rng.Intn(5)))} }},
		{"SELECT OrderID FROM Orders WHERE CustID = ? ORDER BY OrderID LIMIT ?", func() []Value {
			return []Value{custs(), Int(int64(rng.Intn(6) - 1))}
		}},
		{"UPDATE Orders SET Quantity = Quantity + ? WHERE CustID = ?", func() []Value { return []Value{Int(int64(rng.Intn(3))), custs()} }},
		{"DELETE FROM Orders WHERE CustID = ? AND Quantity > ?", func() []Value { return []Value{custs(), Int(int64(rng.Intn(20)))} }},
		{"INSERT INTO Log VALUES (?, ?, ?, ?)", func() []Value { return []Value{custs(), note(), qty(), qty()} }},
		{"INSERT INTO Log (ID, Note) VALUES (?, ?), (?, 'x')", func() []Value { return []Value{custs(), note(), custs()} }},
		{"INSERT INTO Log (Qty, ID) VALUES (?, ?)", func() []Value { return []Value{qty(), custs()} }},
		{"INSERT INTO Log (ID, Seq, Qty) VALUES (?, NEXTVAL('log_seq'), ?)", func() []Value { return []Value{custs(), qty()} }},
		{"CALL add_log()", func() []Value { return nil }},
		{"CALL log_note()", func() []Value { return nil }},
	}
	table := func() *Result {
		all := &Result{}
		for _, q := range []string{"SELECT OrderID, CustID, Quantity FROM Orders ORDER BY OrderID", "SELECT ID, Note, Qty, Seq FROM Log ORDER BY Seq, ID, Note, Qty"} {
			res, err := s.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			all.Rows = append(all.Rows, res.Rows...)
		}
		return all
	}
	inTxn := func(run func() (*Result, error)) (*Result, error, *Result) {
		seq := db.sequences["log_seq"]
		seq.mu.Lock()
		seq.next = 1
		seq.mu.Unlock()
		s.Exec("BEGIN")
		defer s.Exec("ROLLBACK")
		res, err := run()
		return res, err, table()
	}
	for i := 0; i < 1000; i++ {
		tx := texts[rng.Intn(len(texts))]
		params := tx.params()
		if !strings.HasPrefix(tx.sql, "SELECT") {
			got, gotErr, gotTable := inTxn(func() (*Result, error) { return s.Exec(tx.sql, params...) })
			want, wantErr, wantTable := inTxn(func() (*Result, error) { return freshExec(s, tx.sql, params) })
			if d := sameRun(got, gotErr, want, wantErr) + diffResults(gotTable, wantTable, true); d != "" {
				t.Fatalf("re-binding %d: %s %v: %s", i, tx.sql, params, d)
			}
			continue
		}
		got, gotErr := s.Exec(tx.sql, params...)
		want, wantErr := freshExec(s, tx.sql, params)
		if d := sameRun(got, gotErr, want, wantErr); d != "" {
			t.Fatalf("re-binding %d: %s %v: %s", i, tx.sql, params, d)
		}
	}

	// Missing parameters, on a cached text with an extracted literal and
	// on a prepared statement whose plan is kept: the runs around the
	// missing one still match a fresh Prepare, results and tables.
	if _, err := s.Exec("SELECT ItemID FROM Orders WHERE CustID = ? AND Quantity > 3"); err == nil || !strings.Contains(err.Error(), "parameter 1") {
		t.Fatalf("cached text run without its parameter: %v", err)
	}
	if _, err := s.Exec("INSERT INTO Log (ID, Qty) VALUES (7, ?)"); err == nil || !strings.Contains(err.Error(), "parameter 1") {
		t.Fatalf("cached INSERT run without its parameter: %v", err)
	}
	for _, text := range []string{readPointSQL, "INSERT INTO Log (ID, Qty) VALUES (?, 3)", "INSERT INTO Log (ID, Note) VALUES (?, 'n')", "SELECT OrderID FROM Orders ORDER BY OrderID LIMIT ?"} {
		ps, err := s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		for i, params := range [][]Value{{Int(5)}, {}, {Int(6)}} {
			got, gotErr, gotTable := inTxn(func() (*Result, error) { return ps.Exec(params...) })
			if len(params) == 0 {
				if gotErr == nil || !strings.Contains(gotErr.Error(), "missing value for parameter 1") {
					t.Fatalf("prepared %q run %d without its parameter: %v", text, i, gotErr)
				}
				continue
			}
			if gotErr != nil || text == readPointSQL && len(got.Rows) != 1 {
				t.Fatalf("prepared %q run %d: %v, %v", text, i, got, gotErr)
			}
			want, wantErr, wantTable := inTxn(func() (*Result, error) { return freshExec(s, text, params) })
			if d := sameRun(got, gotErr, want, wantErr) + diffResults(gotTable, wantTable, true); d != "" {
				t.Fatalf("prepared %q run %d: %s", text, i, d)
			}
		}
	}
}

// TestStatementMixesCompileOncePerText runs the benchmark's sql-read
// statement mix and sql-write transaction 1 000 times each: every distinct
// text plans once — the procedure's body once, however it is called, and
// a text once whether its key arrives as a literal or a parameter.
func TestStatementMixesCompileOncePerText(t *testing.T) {
	db := newReadDB(t, 512) // with the approved_totals procedure
	s := db.Session()
	exec := func(sql string, params ...Value) *Result {
		t.Helper()
		res, err := s.Exec(sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	before := db.StmtCacheStats().Compiles
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			exec(readAggSQL, Int(int64(1+i%20)))
		} else {
			exec("CALL approved_totals()")
		}
		id, cust := 1+i*7%512, i*13%64
		exec(readPointSQL, Int(int64(id)))
		exec(strings.Replace(readPointSQL, "?", fmt.Sprint(id), 1))
		exec(readTopKSQL, Int(int64(cust)))
		exec(strings.Replace(readTopKSQL, "?", fmt.Sprint(cust), 1))
		exec(readJoinSQL, Str(fmt.Sprint("region", i%4)))
	}
	if got := db.StmtCacheStats().Compiles - before; got != 5 {
		t.Errorf("read mix planned %d times, want 5: aggregate, procedure body, point, top-5, join", got)
	}

	before = db.StmtCacheStats().Compiles
	stmts := db.Stats().Statements
	for i := 0; i < 1000; i++ {
		id := int64(10000 + i)
		exec("BEGIN")
		exec("INSERT INTO Orders (OrderID, CustID, ItemID, Quantity, Approved) VALUES (?, ?, ?, ?, ?)", Int(id), Int(64), Str("item1000"), Int(3), Bool(true))
		for j := 0; j < 4; j++ {
			exec("UPDATE Orders SET Quantity = Quantity + ? WHERE OrderID = ?", Int(1), Int(int64(1+(i*4+j)%512)))
		}
		exec("UPDATE Orders SET Quantity = Quantity + 1 WHERE CustID = ?", Int(int64(i%64)))
		exec("DELETE FROM Orders WHERE OrderID = ?", Int(id))
		exec("COMMIT")
	}
	if got := db.StmtCacheStats().Compiles - before; got != 4 {
		t.Errorf("write transaction planned %d times, want 4: the INSERT, two UPDATE texts and the DELETE", got)
	}
	if got := db.Stats().Statements - stmts; got != 9000 {
		t.Errorf("write transaction ran %d statements per op, want 9", got/1000)
	}
}

// TestConcurrentPlanReuse: eight sessions run the same cached SELECT and
// UPDATE texts for two seconds while a ninth creates, one by one, indexes
// their WHERE can probe. Each writer owns one customer's orders, so every
// result has a serial oracle: the writer's own running totals for its
// rows, the seeded values for columns nobody writes. The lend hook sees
// every plan held and given back: none may be held twice at once.
func TestConcurrentPlanReuse(t *testing.T) {
	const writers, perCust = 8, 8
	db := Open("concurrent")
	db.MustExec("CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, CustID INTEGER NOT NULL, ItemID VARCHAR NOT NULL, Quantity INTEGER NOT NULL)")
	for i := 0; i < writers*perCust; i++ {
		db.MustExec("INSERT INTO Orders VALUES (?, ?, ?, ?)", Int(int64(i)), Int(int64(i/perCust)), Str(fmt.Sprint("item", i%5)), Int(1))
	}
	var mu sync.Mutex
	held := map[*selectPlan]bool{}
	var doubleHeld atomic.Int64
	lendHook = func(p *selectPlan, hold bool) {
		mu.Lock()
		defer mu.Unlock()
		if hold && held[p] {
			doubleHeld.Add(1)
		}
		held[p] = hold
	}
	defer func() { lendHook = nil }()

	const (
		readOwn   = "SELECT OrderID, Quantity FROM Orders WHERE CustID = ? ORDER BY OrderID"
		readItems = "SELECT OrderID, ItemID FROM Orders WHERE CustID = ? ORDER BY OrderID"
		write     = "UPDATE Orders SET Quantity = Quantity + ? WHERE CustID = ?"
	)
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	var ops atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(cust int64) {
			defer wg.Done()
			s := db.Session()
			qty := make([]int64, perCust)
			for i := range qty {
				qty[i] = 1
			}
			for n := int64(0); time.Now().Before(deadline); n++ {
				d := n%3 + 1
				res, err := s.Exec(write, Int(d), Int(cust))
				if err != nil || res.RowsAffected != perCust {
					errs <- fmt.Errorf("customer %d: update: %v, %v", cust, res, err)
					return
				}
				for i := range qty {
					qty[i] += d
				}
				if res, err = s.Exec(readOwn, Int(cust)); err != nil || len(res.Rows) != perCust {
					errs <- fmt.Errorf("customer %d: read: %v, %v", cust, res, err)
					return
				}
				for i, row := range res.Rows {
					if row[0].I != cust*perCust+int64(i) || row[1].I != qty[i] {
						errs <- fmt.Errorf("customer %d: row %d = %v, want (%d, %d)", cust, i, row, cust*perCust+int64(i), qty[i])
						return
					}
				}
				other := (cust + n) % writers
				if res, err = s.Exec(readItems, Int(other)); err != nil || len(res.Rows) != perCust {
					errs <- fmt.Errorf("customer %d reading %d: %v, %v", cust, other, res, err)
					return
				}
				for i, row := range res.Rows {
					if id := other*perCust + int64(i); row[0].I != id || row[1].S != fmt.Sprint("item", id%5) {
						errs <- fmt.Errorf("customer %d reading %d: row %d = %v", cust, other, i, row)
						return
					}
				}
				ops.Add(3)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.Session()
		for n := 0; n < 32 && time.Now().Before(deadline); n++ {
			if _, err := s.Exec(fmt.Sprintf("CREATE INDEX orders_cust%d ON Orders (CustID)", n)); err != nil {
				errs <- err
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := doubleHeld.Load(); n > 0 {
		t.Errorf("%d times a plan was lent while another execution held it", n)
	}
	compiles := db.StmtCacheStats().Compiles
	t.Logf("%d statements, %d plans built", ops.Load(), compiles)
	if compiles >= ops.Load() {
		t.Errorf("no plan was reused: %d statements, %d plans built", ops.Load(), compiles)
	}
	for p, h := range held {
		if h {
			t.Errorf("plan %p never given back", p)
		}
	}
}
