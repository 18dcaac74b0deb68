package sqldb

import (
	"strings"
	"testing"
)

func TestDumpRestore(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec("CREATE INDEX idx_item ON Orders (ItemID)")
	db.MustExec("CREATE UNIQUE INDEX uidx ON Orders (OrderID, ItemID)")
	db.MustExec("CREATE SEQUENCE s START WITH 5 INCREMENT BY 2")
	db.MustExec("SELECT NEXTVAL('s')") // advance so the dump captures state
	db.MustExec(`CREATE PROCEDURE p (x) AS 'SELECT COUNT(*) FROM Orders WHERE Quantity > :x'`)
	db.RegisterProcedure("native", func(s *Session, args []Value) (*Result, error) {
		return &Result{}, nil
	})

	dump := db.Dump()
	for _, want := range []string{
		"CREATE TABLE Orders",
		"PRIMARY KEY",
		"INSERT INTO Orders VALUES (1, 'bolt', 10, TRUE);",
		"CREATE INDEX idx_item ON Orders (ItemID);",
		"CREATE UNIQUE INDEX uidx ON Orders (OrderID, ItemID);",
		"CREATE SEQUENCE s START WITH 7 INCREMENT BY 2;",
		"CREATE PROCEDURE p (x) AS",
		"-- native procedure native cannot be dumped",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}

	// Restore into a fresh database and compare observable state.
	db2 := Open("restored")
	if _, err := db2.ExecScript(dump); err != nil {
		t.Fatalf("restore: %v", err)
	}
	a := db.MustExec("SELECT COUNT(*), SUM(Quantity) FROM Orders").Rows[0]
	b := db2.MustExec("SELECT COUNT(*), SUM(Quantity) FROM Orders").Rows[0]
	if a[0].I != b[0].I || a[1].I != b[1].I {
		t.Fatalf("restored content differs: %v vs %v", a, b)
	}
	// Sequence continues where the original left off.
	v := db2.MustExec("SELECT NEXTVAL('s')").Rows[0][0]
	if v.I != 7 {
		t.Fatalf("restored sequence: %v", v)
	}
	// Procedure works after restore.
	r, err := db2.Exec("CALL p(5)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 3 {
		t.Fatalf("restored procedure: %v", r.Rows[0][0])
	}
	// Unique index enforced after restore.
	if _, err := db2.Exec("INSERT INTO Orders VALUES (1, 'bolt', 1, TRUE)"); err == nil {
		t.Fatal("restored PK not enforced")
	}
}

func TestDumpQuotesStrings(t *testing.T) {
	db := Open("q")
	db.MustExec("CREATE TABLE t (s VARCHAR)")
	db.MustExec("INSERT INTO t VALUES ('it''s')")
	dump := db.Dump()
	if !strings.Contains(dump, "('it''s')") {
		t.Fatalf("quote escaping: %s", dump)
	}
	db2 := Open("q2")
	if _, err := db2.ExecScript(dump); err != nil {
		t.Fatal(err)
	}
	if got := db2.MustExec("SELECT s FROM t").Rows[0][0].S; got != "it's" {
		t.Fatalf("restored string: %q", got)
	}
}

func TestExplain(t *testing.T) {
	db := newOrdersDB(t)
	plan := func(sql string) string {
		r, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var lines []string
		for _, row := range r.Rows {
			lines = append(lines, row[0].S)
		}
		return strings.Join(lines, "\n")
	}

	p := plan("EXPLAIN SELECT * FROM Orders WHERE Quantity > 3")
	if !strings.Contains(p, "SCAN Orders (6 rows)") || !strings.Contains(p, "FILTER") {
		t.Fatalf("scan plan: %s", p)
	}

	// The primary key index is chosen for PK equality.
	p = plan("EXPLAIN SELECT * FROM Orders WHERE OrderID = 3")
	if !strings.Contains(p, "INDEX PROBE Orders USING Orders_pk (OrderID)") {
		t.Fatalf("index plan: %s", p)
	}

	// Disjunctions disable the index path.
	p = plan("EXPLAIN SELECT * FROM Orders WHERE OrderID = 3 OR OrderID = 4")
	if !strings.Contains(p, "SCAN Orders") {
		t.Fatalf("OR plan: %s", p)
	}

	db.MustExec("CREATE TABLE Items (ItemID VARCHAR, Price FLOAT)")
	p = plan("EXPLAIN SELECT o.OrderID FROM Orders o JOIN Items i ON o.ItemID = i.ItemID ORDER BY o.OrderID LIMIT 2")
	for _, want := range []string{"INNER HASH JOIN Items", "SORT (1 keys)", "LIMIT/OFFSET"} {
		if !strings.Contains(p, want) {
			t.Fatalf("join plan missing %q: %s", want, p)
		}
	}

	p = plan("EXPLAIN SELECT ItemID, SUM(Quantity) FROM Orders GROUP BY ItemID HAVING SUM(Quantity) > 3")
	for _, want := range []string{"GROUP BY (1 keys)", "HAVING FILTER"} {
		if !strings.Contains(p, want) {
			t.Fatalf("group plan missing %q: %s", want, p)
		}
	}

	p = plan("EXPLAIN SELECT 1 UNION SELECT 2")
	if !strings.Contains(p, "UNION") || !strings.Contains(p, "CONSTANT ROW") {
		t.Fatalf("union plan: %s", p)
	}
}

func TestAlterTable(t *testing.T) {
	db := newOrdersDB(t)

	// ADD COLUMN with default backfills existing rows.
	db.MustExec("ALTER TABLE Orders ADD COLUMN Priority INTEGER DEFAULT 5")
	r := mustQuery(t, db, "SELECT Priority FROM Orders WHERE OrderID = 1")
	if r.Rows[0][0].I != 5 {
		t.Fatalf("backfilled default: %v", r.Rows[0][0])
	}
	db.MustExec("INSERT INTO Orders (OrderID, ItemID, Quantity, Approved) VALUES (7, 'x', 1, TRUE)")
	r = mustQuery(t, db, "SELECT Priority FROM Orders WHERE OrderID = 7")
	if r.Rows[0][0].I != 5 {
		t.Fatalf("default on new row: %v", r.Rows[0][0])
	}

	// ADD duplicate / NOT NULL without default on non-empty table fail.
	if _, err := db.Exec("ALTER TABLE Orders ADD COLUMN Priority INTEGER"); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if _, err := db.Exec("ALTER TABLE Orders ADD COLUMN Req VARCHAR NOT NULL"); err == nil {
		t.Fatal("NOT NULL without default must fail on non-empty table")
	}

	// DROP COLUMN.
	db.MustExec("ALTER TABLE Orders DROP COLUMN Priority")
	if _, err := db.Exec("SELECT Priority FROM Orders"); err == nil {
		t.Fatal("dropped column still selectable")
	}
	// Queries on remaining columns still work and indexes survive.
	r = mustQuery(t, db, "SELECT ItemID FROM Orders WHERE OrderID = 7")
	if r.Rows[0][0].S != "x" {
		t.Fatalf("post-drop index probe: %v", r.Rows[0][0])
	}
	// Dropping an indexed column is refused.
	if _, err := db.Exec("ALTER TABLE Orders DROP COLUMN OrderID"); err == nil {
		t.Fatal("dropping PK column must fail")
	}

	// Dropping a column that precedes indexed columns keeps probes sound.
	db.MustExec("CREATE TABLE wide (a INTEGER, b INTEGER, c INTEGER)")
	db.MustExec("INSERT INTO wide VALUES (1, 2, 3), (4, 5, 6)")
	db.MustExec("CREATE INDEX wide_c ON wide (c)")
	db.MustExec("ALTER TABLE wide DROP COLUMN a")
	r = mustQuery(t, db, "SELECT b FROM wide WHERE c = 6")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 5 {
		t.Fatalf("index after preceding-column drop: %v", r.Rows)
	}

	// RENAME TO.
	db.MustExec("ALTER TABLE wide RENAME TO narrow")
	if db.HasTable("wide") || !db.HasTable("narrow") {
		t.Fatal("rename failed")
	}
	if _, err := db.Exec("ALTER TABLE narrow RENAME TO Orders"); err == nil {
		t.Fatal("rename onto existing table must fail")
	}
	if _, err := db.Exec("ALTER TABLE missing ADD COLUMN x INTEGER"); err == nil {
		t.Fatal("alter on missing table must fail")
	}
}

func TestViews(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec(`CREATE VIEW ApprovedTotals AS
		SELECT ItemID, SUM(Quantity) AS Total FROM Orders
		WHERE Approved = TRUE GROUP BY ItemID`)

	// Views are queryable like tables, including with predicates/joins.
	r := mustQuery(t, db, "SELECT Total FROM ApprovedTotals WHERE ItemID = 'bolt'")
	if r.Rows[0][0].I != 15 {
		t.Fatalf("view query: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT COUNT(*) FROM ApprovedTotals v JOIN Orders o ON v.ItemID = o.ItemID")
	if r.Rows[0][0].I != 6 {
		t.Fatalf("view join: %v", r.Rows[0][0])
	}

	// Views see current data (re-executed per reference).
	db.MustExec("UPDATE Orders SET Approved = TRUE WHERE Approved = FALSE")
	r = mustQuery(t, db, "SELECT SUM(Total) FROM ApprovedTotals")
	if r.Rows[0][0].I != 36 {
		t.Fatalf("view freshness: %v", r.Rows[0][0])
	}

	// Name collisions both ways; invalid definitions rejected eagerly.
	if _, err := db.Exec("CREATE TABLE ApprovedTotals (x INTEGER)"); err == nil {
		t.Fatal("table over view must fail")
	}
	if _, err := db.Exec("CREATE VIEW Orders AS SELECT 1"); err == nil {
		t.Fatal("view over table must fail")
	}
	if _, err := db.Exec("CREATE VIEW bad AS SELECT nope FROM Orders"); err == nil {
		t.Fatal("invalid view definition must fail eagerly")
	}
	if _, err := db.Exec("CREATE VIEW ApprovedTotals AS SELECT 1"); err == nil {
		t.Fatal("duplicate view must fail")
	}

	// DML against a view fails (no such table).
	if _, err := db.Exec("DELETE FROM ApprovedTotals"); err == nil {
		t.Fatal("DML on view must fail")
	}

	// EXPLAIN expands views.
	r = mustQuery(t, db, "EXPLAIN SELECT * FROM ApprovedTotals WHERE ItemID = 'x'")
	var plan strings.Builder
	for _, row := range r.Rows {
		plan.WriteString(row[0].S + "\n")
	}
	if !strings.Contains(plan.String(), "VIEW ApprovedTotals (expanded)") ||
		!strings.Contains(plan.String(), "GROUP BY") {
		t.Fatalf("view plan: %s", plan.String())
	}

	// Dump includes the definition; restore works.
	dump := db.Dump()
	if !strings.Contains(dump, "CREATE VIEW ApprovedTotals AS") {
		t.Fatalf("dump missing view: %s", dump)
	}
	db2 := Open("restored")
	if _, err := db2.ExecScript(dump); err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Session().Query("SELECT SUM(Total) FROM ApprovedTotals")
	if err != nil || r2.Rows[0][0].I != 36 {
		t.Fatalf("restored view: %v %v", r2, err)
	}

	// DROP VIEW.
	db.MustExec("DROP VIEW ApprovedTotals")
	if _, err := db.Exec("SELECT * FROM ApprovedTotals"); err == nil {
		t.Fatal("dropped view still queryable")
	}
	db.MustExec("DROP VIEW IF EXISTS ApprovedTotals")
	if _, err := db.Exec("DROP VIEW ApprovedTotals"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestPreparedStatements(t *testing.T) {
	db := newOrdersDB(t)
	s := db.Session()
	ps, err := s.Prepare("SELECT COUNT(*) FROM Orders WHERE ItemID = ?")
	if err != nil {
		t.Fatal(err)
	}
	for item, want := range map[string]int64{"bolt": 2, "nut": 2, "missing": 0} {
		r, err := ps.Exec(Str(item))
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].I != want {
			t.Fatalf("%s: %v", item, r.Rows[0][0])
		}
	}
	psn, err := s.Prepare("UPDATE Orders SET Quantity = :q WHERE OrderID = :id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psn.ExecNamed(map[string]Value{"q": Int(99), "id": Int(1)}); err != nil {
		t.Fatal(err)
	}
	if db.MustExec("SELECT Quantity FROM Orders WHERE OrderID = 1").Rows[0][0].I != 99 {
		t.Fatal("named prepared update")
	}
	if _, err := s.Prepare("SELEC"); err == nil {
		t.Fatal("bad SQL must fail at prepare time")
	}
}
