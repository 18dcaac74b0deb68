package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// Tests of the SELECT pipeline's contract (select.go): what it may not
// allocate or read, what EXPLAIN says about it, and the bugs fixed with
// it. Its results are checked against the materializing executor in
// slowselect_test.go.

func queryRows(t *testing.T, db *DB, sql string, params ...Value) string {
	t.Helper()
	res, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return fmt.Sprint(res.Rows)
}

func newABDB(t *testing.T) *DB {
	t.Helper()
	db := Open("ab")
	db.MustExec("CREATE TABLE a (id INTEGER, g VARCHAR)")
	db.MustExec("CREATE TABLE b (id INTEGER)")
	db.MustExec("INSERT INTO a VALUES (1, 'x'), (2, 'x'), (3, 'y'), (4, 'y')")
	db.MustExec("INSERT INTO b VALUES (1), (2), (3), (4)")
	return db
}

// Names used to resolve lazily, on the first row to reach them, so a
// statement with an unknown column succeeded whenever no row did. They
// resolve when the plan is built.
func TestNamesResolveWithoutRows(t *testing.T) {
	db := newABDB(t)
	for _, sql := range []string{
		"SELECT nosuch FROM a WHERE id > 100",
		"SELECT id FROM a WHERE id > 100 AND nosuch = 1",
		"SELECT id FROM a WHERE id > 100 ORDER BY nosuch",
		"SELECT COUNT(*) FROM a WHERE id > 100 GROUP BY nosuch",
		"SELECT id FROM a JOIN b ON a.id = b.nosuch WHERE a.id > 100",
		"SELECT a.id FROM a JOIN b ON a.id = b.id WHERE a.id > 100 AND id = 1", // ambiguous
		"SELECT id FROM a WHERE id > 100 AND (id = 1 OR id = nosuch)",
		"SELECT NEXTVAL(nosuch) FROM a WHERE id > 100",
		"UPDATE a SET g = 'z' WHERE id > 100 AND nosuch = 1",
		"DELETE FROM a WHERE id > 100 AND nosuch = 1",
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s: no error over zero rows", sql)
		}
	}
}

// GROUP BY <n> and ORDER BY <n> are not in the dialect: a key is refused
// when it begins with a constant, on the cached-text path too, where
// literals become bind slots.
func TestGroupByOrdinal(t *testing.T) {
	db := newABDB(t)
	for _, sql := range []string{"SELECT g, COUNT(*) FROM a GROUP BY 1 ORDER BY 1", "SELECT id + 10, g FROM a WHERE id < 3 GROUP BY 2, 1",
		"SELECT g FROM a GROUP BY 'g'", "SELECT g FROM a ORDER BY ?", "SELECT *, COUNT(*) FROM b GROUP BY 1"} {
		for i := 0; i < 2; i++ { // a cache miss, then the same text again
			if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "no constant") {
				t.Errorf("Exec %s: %v", sql, err)
			}
		}
		if _, err := db.Session().Prepare(sql); err == nil || !strings.Contains(err.Error(), "no constant") {
			t.Errorf("Prepare %s: %v", sql, err)
		}
	}
	if got := queryRows(t, db, "SELECT g, COUNT(*) FROM a GROUP BY g ORDER BY g"); got != "[[x 2] [y 2]]" {
		t.Errorf("GROUP BY a column: %s", got)
	}
}

// TestSelectAllocsDoNotScaleWithRows pins streaming by a count: what a
// SELECT allocates follows its groups and its output, not its input.
func TestSelectAllocsDoNotScaleWithRows(t *testing.T) {
	allocs := func(db *DB, sql string, param Value) (float64, int) {
		s := db.Session()
		var rows int
		n := testing.AllocsPerRun(20, func() {
			res, err := s.Exec(sql, param)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		})
		return n, rows
	}
	small, big := newReadDB(t, 512), newReadDB(t, 4096)

	// The aggregate scan: 64 groups either way. (The materializing
	// executor differed by ≈ 900 here: one row slice, one bin entry and one
	// aggregate re-walk per input row.)
	a512, _ := allocs(small, readAggSQL, Int(3))
	a4096, groups := allocs(big, readAggSQL, Int(3))
	if groups != 64 || a4096 > a512+8 {
		t.Errorf("aggregate over 4096 rows: %.0f allocations for %d groups, %.0f over 512 rows", a4096, groups, a512)
	}
	// The groups: a group is an ordinal into the plan's slabs, and the
	// output rows share one backing, so 64 groups allocate what 8 do.
	const bySQL = "SELECT ItemID, COUNT(*), SUM(Quantity) FROM Orders WHERE OrderID <= ? GROUP BY ItemID"
	g8, n8 := allocs(big, bySQL, Int(8))
	g64, n64 := allocs(big, bySQL, Int(64))
	if n8 != 8 || n64 != 64 || g64 > g8+2 || g64 < g8-2 {
		t.Errorf("groups: %.0f allocations for %d groups, %.0f for %d", g64, n64, g8, n8)
	}
	// The join: 64 items × 32 suppliers, 16 rows out. (It was 2 155: one
	// concatenated row per candidate pair.)
	if n, rows := allocs(big, readJoinSQL, Str("region1")); rows != 16 || n > 60+4*float64(rows) {
		t.Errorf("join: %.0f allocations for %d output rows", n, rows)
	}
	// A primary-key point SELECT: its Result, Rows and one row's backing
	// (41 before the pipeline, 7 with a transaction, scope, probe copy and
	// row per statement).
	if n, rows := allocs(big, readPointSQL, Int(77)); rows != 1 || n > 3 {
		t.Errorf("point lookup: %.0f allocations for %d rows", n, rows)
	}
}

// RowsScanned keeps its meaning — rows a scan or probe reads, counted
// before the filter — and a join must not read more than scanning each
// side once did.
func TestJoinRowsScanned(t *testing.T) {
	s := newReadDB(t, 4096).Session()
	var st StmtStats
	s.SetStatsSink(func(got StmtStats) { st = got })
	for _, c := range []struct {
		sql   string
		param Value
		want  int64
	}{
		{readJoinSQL, Str("region2"), 64 + 32}, // hash: Items scanned, Suppliers scanned once to build
		{"SELECT o.OrderID, i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.CustID = ?", Int(7), 8 + 8}, // index probe, then one index probe per order
		{readAggSQL, Int(1), 4096},
		{"SELECT OrderID FROM Orders LIMIT 3", Null(), 3}, // nothing downstream needs the rest
	} {
		var params []Value
		if c.param.K != KindNull {
			params = []Value{c.param}
		}
		if _, err := s.Exec(c.sql, params...); err != nil {
			t.Fatal(err)
		}
		if st.RowsScanned != c.want {
			t.Errorf("%s\n  scanned %d rows, want %d", c.sql, st.RowsScanned, c.want)
		}
	}
}

// EXPLAIN prints the plan struct the executor runs: one golden per join
// strategy, filter placement and grouping operator; a join with no key
// plans nothing.
func TestExplainNamesWhatRuns(t *testing.T) {
	db := newReadDB(t, 64)
	for _, c := range []struct{ sql, want string }{
		{readJoinSQL, `
SCAN Items (64 rows)
INNER HASH JOIN Suppliers (32 rows)
FILTER (pushed to Suppliers)
SORT (1 keys)`},
		{"SELECT o.OrderID, i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.CustID = 3 AND o.Quantity + i.Price > 5", `
INDEX PROBE Orders USING orders_cust (CustID)
FILTER (pushed to Orders)
INNER INDEX NESTED LOOP JOIN Items USING Items_pk (ItemID)
FILTER`},
		// The outer side is no smaller than the inner table: hash, though an index exists.
		{"SELECT 1 FROM Orders o JOIN Items i ON o.ItemID = i.ItemID AND i.Price > 5", `
SCAN Orders (64 rows)
INNER HASH JOIN Items (64 rows)`},

		{readAggSQL, `
SCAN Orders (64 rows)
FILTER
HASH GROUP BY (1 keys)
SORT (1 keys)`},
		{"SELECT COUNT(*), SUM(Price) FROM Items LIMIT 1", `
SCAN Items (64 rows)
STREAM AGGREGATE
LIMIT`},
	} {
		res, err := db.Exec("EXPLAIN "+c.sql, Str("region1"))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got strings.Builder
		for _, row := range res.Rows {
			got.WriteString("\n" + row[0].S)
		}
		if got.String() != c.want {
			t.Errorf("EXPLAIN %s\n got: %s\nwant: %s", c.sql, got.String(), c.want)
		}
	}
	// A join is a hash or an index join: an ON without a key is refused.
	for _, sql := range []string{"SELECT 1 FROM Items i JOIN Suppliers s ON i.SupplierID < s.SupplierID",
		"SELECT 1 FROM Items i JOIN Suppliers s ON i.SupplierID = s.SupplierID OR s.Region = 'x'",
		"SELECT 1 FROM Items i JOIN Suppliers s ON i.SupplierID + 1 = s.SupplierID"} {
		if _, err := db.Exec("EXPLAIN " + sql); err == nil || !strings.Contains(err.Error(), "needs an equality") {
			t.Errorf("EXPLAIN %s: %v", sql, err)
		}
	}
}

// EXPLAIN names the index the next execution probes — for a join's inner
// side too, where two indexes cover the key and the choice must not
// depend on map order.
func TestExplainNamesJoinInnerIndex(t *testing.T) {
	db := newReadDB(t, 64)
	db.MustExec("CREATE INDEX items_b ON Items (ItemID)")
	db.MustExec("CREATE INDEX items_a ON Items (ItemID)")
	const sql = "SELECT i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.OrderID = 5"
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var probed string
	db.RegisterProcedure("run_plan", func(s *Session) (*Result, error) {
		base := &env{session: s}
		p, err := s.planSelect(st.(*SelectStmt), base, nil)
		if err != nil {
			return nil, err
		}
		probed = p.srcs[1].jidx.Name
		return p.run(base)
	})
	for i := 0; i < 20; i++ {
		plan := queryRows(t, db, "EXPLAIN "+sql)
		if res, err := db.Exec("CALL run_plan()"); err != nil || len(res.Rows) != 1 {
			t.Fatalf("run: %v %v", res, err)
		}
		if probed != "Items_pk" || !strings.Contains(plan, "INDEX NESTED LOOP JOIN Items USING "+probed+" ") {
			t.Fatalf("execution probed %s, EXPLAIN said %s", probed, plan)
		}
	}
}
