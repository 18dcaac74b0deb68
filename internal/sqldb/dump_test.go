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

	p = plan("EXPLAIN SELECT ItemID, SUM(Quantity) FROM Orders GROUP BY ItemID")
	if !strings.Contains(p, "GROUP BY (1 keys)") {
		t.Fatalf("group plan: %s", p)
	}

	p = plan("EXPLAIN SELECT NEXTVAL('s')")
	if !strings.Contains(p, "CONSTANT ROW") {
		t.Fatalf("constant plan: %s", p)
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
