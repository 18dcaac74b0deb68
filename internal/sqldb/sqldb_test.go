package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// newOrdersDB builds the running example's Orders table used throughout the
// paper's figures.
func newOrdersDB(t testing.TB) *DB {
	t.Helper()
	db := Open("testdb")
	db.MustExec(`CREATE TABLE Orders (
		OrderID INTEGER PRIMARY KEY,
		ItemID VARCHAR NOT NULL,
		Quantity INTEGER NOT NULL,
		Approved BOOLEAN NOT NULL
	)`)
	rows := []struct {
		id   int64
		item string
		qty  int64
		ok   bool
	}{
		{1, "bolt", 10, true},
		{2, "bolt", 5, true},
		{3, "nut", 7, false},
		{4, "nut", 3, true},
		{5, "screw", 2, true},
		{6, "screw", 9, false},
	}
	for _, r := range rows {
		db.MustExec("INSERT INTO Orders (OrderID, ItemID, Quantity, Approved) VALUES (?, ?, ?, ?)",
			Int(r.id), Str(r.item), Int(r.qty), Bool(r.ok))
	}
	return db
}

func mustQuery(t *testing.T, db *DB, sql string, params ...Value) *Result {
	t.Helper()
	r, err := db.Session().Query(sql, params...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return r
}

func TestCreateInsertSelect(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT OrderID, ItemID FROM Orders ORDER BY OrderID")
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(r.Rows))
	}
	if r.Rows[0][0].I != 1 || r.Rows[0][1].S != "bolt" {
		t.Fatalf("unexpected first row: %v", r.Rows[0])
	}
}

func TestWhereFilter(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT OrderID FROM Orders WHERE Approved = TRUE AND Quantity > 4 ORDER BY OrderID")
	var ids []int64
	for _, row := range r.Rows {
		ids = append(ids, row[0].I)
	}
	want := []int64{1, 2}
	if len(ids) != len(want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}
}

func TestGroupByAggregate(t *testing.T) {
	db := newOrdersDB(t)
	// The paper's SQL1: aggregate approved orders per item type.
	r := mustQuery(t, db, `SELECT ItemID, SUM(Quantity) AS ItemQuantity
		FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`)
	if len(r.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(r.Rows))
	}
	wants := map[string]int64{"bolt": 15, "nut": 3, "screw": 2}
	for _, row := range r.Rows {
		if got := row[1].I; got != wants[row[0].S] {
			t.Errorf("item %s: got %d, want %d", row[0].S, got, wants[row[0].S])
		}
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT COUNT(*), SUM(Quantity) FROM Orders")
	if row := r.Rows[0]; row[0].I != 6 || row[1].I != 36 {
		t.Fatalf("unexpected aggregates: %v", row)
	}
	refused(t, "SELECT MIN(Quantity) FROM Orders", "SELECT MAX(Quantity) FROM Orders", "SELECT AVG(Quantity) FROM Orders",
		"SELECT SUM(DISTINCT Quantity) FROM Orders")
}

func TestCountOnEmptyTable(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE e (x INTEGER)")
	r := mustQuery(t, db, "SELECT COUNT(*) FROM e")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 0 {
		t.Fatalf("COUNT(*) on empty table: %v", r.Rows)
	}
	r = mustQuery(t, db, "SELECT SUM(x) FROM e")
	if !r.Rows[0][0].IsNull() {
		t.Fatalf("SUM on empty table should be NULL, got %v", r.Rows[0][0])
	}
}

func TestCountDistinct(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT COUNT(DISTINCT ItemID) FROM Orders")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("COUNT(DISTINCT): got %v, want 3", r.Rows[0][0])
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT OrderID FROM Orders ORDER BY Quantity DESC, OrderID LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0].I != 1 || r.Rows[1][0].I != 6 {
		t.Fatalf("unexpected rows: %v", r.Rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT OrderID FROM Orders ORDER BY OrderID LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0].I != 1 || r.Rows[1][0].I != 2 {
		t.Fatalf("unexpected rows: %v", r.Rows)
	}
	refused(t, "SELECT OrderID FROM Orders ORDER BY OrderID LIMIT 2 OFFSET 3", "SELECT OrderID FROM Orders OFFSET 3")
}

func TestUpdate(t *testing.T) {
	db := newOrdersDB(t)
	res := db.MustExec("UPDATE Orders SET Quantity = Quantity + 100 WHERE ItemID = 'bolt'")
	if res.RowsAffected != 2 {
		t.Fatalf("rows affected: %d, want 2", res.RowsAffected)
	}
	r := mustQuery(t, db, "SELECT SUM(Quantity) FROM Orders WHERE ItemID = 'bolt'")
	if r.Rows[0][0].I != 215 {
		t.Fatalf("sum after update: %v", r.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := newOrdersDB(t)
	res := db.MustExec("DELETE FROM Orders WHERE Approved = FALSE")
	if res.RowsAffected != 2 {
		t.Fatalf("rows affected: %d, want 2", res.RowsAffected)
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM Orders")
	if r.Rows[0][0].I != 4 {
		t.Fatalf("remaining rows: %v", r.Rows[0][0])
	}
}

func TestJoin(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec("CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, Price FLOAT)")
	db.MustExec("INSERT INTO Items VALUES ('bolt', 0.10), ('nut', 0.05), ('screw', 0.07)")
	r := mustQuery(t, db, `SELECT o.OrderID, i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.OrderID = 1`)
	if len(r.Rows) != 1 || r.Rows[0][1].F() != 0.10 {
		t.Fatalf("join result: %v", r.Rows)
	}
}

func TestNullSemantics(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE n (x INTEGER)")
	db.MustExec("INSERT INTO n VALUES (1), (NULL), (3)")
	r := mustQuery(t, db, "SELECT COUNT(*) FROM n WHERE x = NULL")
	if r.Rows[0][0].I != 0 {
		t.Fatalf("= NULL must match nothing: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT COUNT(*) FROM n WHERE x <> NULL OR x < 2")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("<> NULL must match nothing: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT COUNT(x), SUM(x), COUNT(*) FROM n")
	if fmt.Sprint(r.Rows) != "[[2 4 3]]" {
		t.Fatalf("COUNT(col) and SUM skip NULL: %v", r.Rows)
	}
	refused(t, "SELECT COUNT(*) FROM n WHERE x IS NULL", "SELECT x FROM n WHERE x IS NOT NULL AND x IN (1, NULL, 3)")
}

func TestNotNullConstraint(t *testing.T) {
	db := newOrdersDB(t)
	_, err := db.Exec("INSERT INTO Orders (OrderID, ItemID, Quantity, Approved) VALUES (7, NULL, 1, TRUE)")
	if err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Fatalf("expected NOT NULL violation, got %v", err)
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	db := newOrdersDB(t)
	_, err := db.Exec("INSERT INTO Orders VALUES (1, 'dup', 1, TRUE)")
	if err == nil || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("expected unique violation, got %v", err)
	}
}

func TestIndexLookupCorrectness(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec("CREATE INDEX idx_item ON Orders (ItemID)")
	r := mustQuery(t, db, "SELECT COUNT(*) FROM Orders WHERE ItemID = 'bolt'")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("index-backed equality: %v", r.Rows[0][0])
	}
	// Index must track updates.
	db.MustExec("UPDATE Orders SET ItemID = 'bolt' WHERE OrderID = 3")
	r = mustQuery(t, db, "SELECT COUNT(*) FROM Orders WHERE ItemID = 'bolt'")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("index after update: %v", r.Rows[0][0])
	}
	// And deletes.
	db.MustExec("DELETE FROM Orders WHERE OrderID = 1")
	r = mustQuery(t, db, "SELECT COUNT(*) FROM Orders WHERE ItemID = 'bolt'")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("index after delete: %v", r.Rows[0][0])
	}
}

func TestTransactionCommitAndRollback(t *testing.T) {
	db := newOrdersDB(t)
	s := db.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("DELETE FROM Orders WHERE OrderID = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO Orders VALUES (99, 'washer', 1, TRUE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE Orders SET Quantity = 0 WHERE OrderID = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM Orders")
	if r.Rows[0][0].I != 6 {
		t.Fatalf("row count after rollback: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT Quantity FROM Orders WHERE OrderID = 2")
	if r.Rows[0][0].I != 5 {
		t.Fatalf("quantity after rollback: %v", r.Rows[0][0])
	}

	// Commit path.
	s2 := db.Session()
	s2.Exec("BEGIN")
	s2.Exec("DELETE FROM Orders WHERE OrderID = 1")
	s2.Exec("COMMIT")
	r = mustQuery(t, db, "SELECT COUNT(*) FROM Orders")
	if r.Rows[0][0].I != 5 {
		t.Fatalf("row count after commit: %v", r.Rows[0][0])
	}
}

func TestStatementAtomicity(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE a (x INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO a VALUES (1)")
	// Multi-row insert where the second row violates the PK: the whole
	// statement must roll back.
	_, err := db.Exec("INSERT INTO a VALUES (2), (1)")
	if err == nil {
		t.Fatal("expected error")
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM a")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("partial insert leaked: count=%v", r.Rows[0][0])
	}
}

func TestSequences(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE SEQUENCE s START WITH 10 INCREMENT BY 5")
	r := mustQuery(t, db, "SELECT NEXTVAL('s')")
	if r.Rows[0][0].I != 10 {
		t.Fatalf("first value: %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT NEXTVAL(?)", Str("S"))
	if r.Rows[0][0].I != 15 {
		t.Fatalf("second value: %v", r.Rows[0][0])
	}
	if _, err := db.Exec("CREATE SEQUENCE s"); err == nil {
		t.Fatal("expected error creating an existing sequence")
	}
	if _, err := db.Exec("SELECT NEXTVAL('nosuch')"); err == nil {
		t.Fatal("expected error for an unknown sequence")
	}
}

func TestSQLProcedure(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec(`CREATE PROCEDURE approve_nuts () AS
		'UPDATE Orders SET Approved = TRUE WHERE ItemID = ''nut'';
		 SELECT COUNT(*) FROM Orders WHERE ItemID = ''nut'' AND Approved = TRUE'`)
	r, err := db.Exec("CALL approve_nuts()")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 2 {
		t.Fatalf("procedure result: %v", r.Rows[0][0])
	}
	refused(t, "CREATE PROCEDURE approve_all (item) AS 'UPDATE Orders SET Approved = TRUE WHERE ItemID = @item'",
		"CALL approve_all('nut')", "CALL approve_nuts")
	if _, err := db.Exec("CREATE PROCEDURE approve_item () AS 'UPDATE Orders SET Approved = TRUE WHERE ItemID = @item'"); err == nil ||
		!strings.Contains(err.Error(), "no parameters") {
		t.Fatalf("a procedure body with a parameter: %v", err)
	}
}

func TestNativeProcedure(t *testing.T) {
	db := newOrdersDB(t)
	db.RegisterProcedure("order_stats", func(s *Session) (*Result, error) {
		return s.Query("SELECT COUNT(*) AS n, SUM(Quantity) AS total FROM Orders")
	})
	r, err := db.Exec("CALL order_stats()")
	if err != nil {
		t.Fatal(err)
	}
	if r.Get(0, "n").I != 6 || r.Get(0, "total").I != 36 {
		t.Fatalf("native procedure: %v", r.Rows)
	}
}

func TestProcedureErrorRollsBack(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec(`CREATE PROCEDURE bad () AS
		'DELETE FROM Orders;
		 INSERT INTO NoSuchTable VALUES (1)'`)
	if _, err := db.Exec("CALL bad()"); err == nil {
		t.Fatal("expected error")
	}
	r := mustQuery(t, db, "SELECT COUNT(*) FROM Orders")
	if r.Rows[0][0].I != 6 {
		t.Fatalf("procedure failure must roll back its work: count=%v", r.Rows[0][0])
	}
}

func TestDDLStatements(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE x (a INTEGER)")
	if !db.HasTable("x") {
		t.Fatal("table x should exist")
	}
	if _, err := db.Exec("CREATE TABLE x (a INTEGER)"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("creating an existing table: %v", err)
	}
	refused(t, "CREATE TABLE IF NOT EXISTS x (a INTEGER)")
	db.MustExec("DROP TABLE x")
	if db.HasTable("x") {
		t.Fatal("table x should be gone")
	}
	db.MustExec("DROP TABLE IF EXISTS x") // no error
	if _, err := db.Exec("DROP TABLE x"); err == nil {
		t.Fatal("expected error dropping missing table")
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec(`CREATE TABLE ItemList AS SELECT ItemID, SUM(Quantity) AS ItemQuantity
		FROM Orders WHERE Approved = TRUE GROUP BY ItemID`)
	r := mustQuery(t, db, "SELECT COUNT(*) FROM ItemList")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("CTAS rows: %v", r.Rows[0][0])
	}
	cols, err := db.Schema("ItemList")
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Name != "ItemID" || cols[1].Name != "ItemQuantity" {
		t.Fatalf("CTAS columns: %v", cols)
	}
}

func TestInsertSelect(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec("CREATE TABLE Archive (OrderID INTEGER, ItemID VARCHAR, Quantity INTEGER, Approved BOOLEAN)")
	r := db.MustExec("INSERT INTO Archive SELECT * FROM Orders WHERE Approved = TRUE")
	if r.RowsAffected != 4 {
		t.Fatalf("insert-select affected: %d", r.RowsAffected)
	}
}

func TestParameters(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT COUNT(*) FROM Orders WHERE ItemID = ? AND Quantity >= ?", Str("bolt"), Int(5))
	if r.Rows[0][0].I != 2 {
		t.Fatalf("positional params: %v", r.Rows[0][0])
	}
	s := db.Session()
	res, err := s.Exec("SELECT COUNT(*) FROM Orders WHERE ItemID = @item", Str("nut"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("named params: %v", res.Rows[0][0])
	}
	refused(t, "SELECT COUNT(*) FROM Orders WHERE ItemID = :item")
}

// Identifiers and named placeholders may hold any Unicode letter: the
// lexer decodes UTF-8, and an unexpected character is reported whole.
func TestUnicodeIdentifiers(t *testing.T) {
	db := Open("unicode")
	db.MustExec("CREATE TABLE Bestellung (Größe INTEGER, Straße VARCHAR)")
	db.MustExec("INSERT INTO Bestellung (Größe, Straße) VALUES (3, 'Hauptstraße'), (5, 'Ring')")
	if got := queryRows(t, db, "SELECT straße, SUM(größe) FROM bestellung WHERE Größe > ? GROUP BY Straße", Int(4)); got != "[[Ring 5]]" {
		t.Errorf("Unicode columns: %s", got)
	}
	res, err := db.Session().Exec("SELECT Größe FROM Bestellung WHERE Straße = @straße", Str("Ring"))
	if err != nil || fmt.Sprint(res.Rows) != "[[5]]" {
		t.Errorf("Unicode named placeholder: %v %v", res, err)
	}
	if _, err := db.Session().SelectAll("Bestellung"); err != nil {
		t.Errorf("constructor over a Unicode-free name: %v", err)
	}
	if _, err := db.Session().SelectAll("Größe_tabelle"); err == nil || strings.Contains(err.Error(), "plain identifier") {
		t.Errorf("constructor refused a Unicode identifier: %v", err)
	}
	if _, err := db.Exec("SELECT 1 € 2"); err == nil || !strings.Contains(err.Error(), `unexpected character "€"`) {
		t.Errorf("unexpected character: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	db := Open("t")
	bad := []string{
		"",
		"SELEC 1",
		"SELECT FROM",
		"INSERT INTO",
		"CREATE TABLE t",
		"SELECT 1 FROM t WHERE",
		"SELECT * FROM t ORDER",
		"DROP",
		"SELECT 'unterminated",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestTypeCoercion(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE c (i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN)")
	db.MustExec("INSERT INTO c VALUES ('42', 1, 99, 1)")
	r := mustQuery(t, db, "SELECT i, f, s, b FROM c")
	row := r.Rows[0]
	if row[0].K != KindInt || row[0].I != 42 {
		t.Fatalf("string->int coercion: %v", row[0])
	}
	if row[1].K != KindFloat || row[1].F() != 1.0 {
		t.Fatalf("int->float coercion: %v", row[1])
	}
	if row[2].K != KindString || row[2].S != "99" {
		t.Fatalf("int->string coercion: %v", row[2])
	}
	if row[3].K != KindBool || !row[3].B() {
		t.Fatalf("int->bool coercion: %v", row[3])
	}
}

func TestStatsCounters(t *testing.T) {
	db := newOrdersDB(t)
	db.ResetStats()
	mustQuery(t, db, "SELECT * FROM Orders")
	st := db.Stats()
	if st.Statements != 1 {
		t.Fatalf("statements: %d", st.Statements)
	}
	if st.RowsRead != 6 {
		t.Fatalf("rows read: %d", st.RowsRead)
	}
	if st.BytesReturned == 0 {
		t.Fatal("bytes returned should be nonzero")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newOrdersDB(t)
	db.MustExec("CREATE TABLE Items (ItemID VARCHAR)")
	db.MustExec("INSERT INTO Items VALUES ('bolt')")
	if _, err := db.Exec("SELECT ItemID FROM Orders o JOIN Items i ON o.ItemID = i.ItemID"); err == nil {
		t.Fatal("expected ambiguous-column error")
	}
}

func TestResultString(t *testing.T) {
	db := newOrdersDB(t)
	r := mustQuery(t, db, "SELECT OrderID, ItemID FROM Orders WHERE OrderID = 1")
	s := r.String()
	if !strings.Contains(s, "OrderID") || !strings.Contains(s, "bolt") {
		t.Fatalf("result rendering: %q", s)
	}
}

func TestExecScript(t *testing.T) {
	db := Open("t")
	r, err := db.ExecScript(`
		CREATE TABLE s (x INTEGER);
		INSERT INTO s VALUES (1), (2), (3);
		SELECT SUM(x) FROM s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 6 {
		t.Fatalf("script result: %v", r.Rows[0][0])
	}
}

func TestComments(t *testing.T) {
	db := Open("t")
	db.MustExec("CREATE TABLE c (x INTEGER) -- trailing comment")
	db.MustExec("INSERT INTO c VALUES (1) /* block comment */")
	r := mustQuery(t, db, "SELECT /* inline */ x FROM c -- done")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("comments: %v", r.Rows[0][0])
	}
}
