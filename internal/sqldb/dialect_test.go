package sqldb

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The dialect's ledger: one row per statement form, clause, operator and
// scalar function sqldb accepts, with an example and the code that issues
// it — a file of this module and text of that file that shows the form.
// The issuers are the figure processes (wfsql.go, figures.go), the
// pattern conformance cases (internal/patterns), the product layers
// (internal/bis, mswf, orasoa, dataset), examples/, the cmd/*/testdata
// scripts, the benchmark's workloads and probes (bench/), and the
// dump/replica path (dump.go, BootstrapState, the change stream).
//
// keptForms are the forms no program issues that sqldb keeps: <>, <, <=,
// > and OR, the predicate alphabet of the differential oracles — the
// expression generator of compile_diff_test.go and the queries of
// slowselect_test.go, each row's issuer. Each row says why it stays
// (why); every other form keptForms once held is refused
// (TestUnissuedFormsAreRefused).
//
// TestDialectRowsParseAndRun is the forward check: every row parses and
// runs, and its issuer holds its marker. TestDialectNamesEveryForm is the
// reverse one: a parseStmt branch, a StmtKind, a keyword or operator the
// parser accepts, an aggregate or a scalar function that no row's example
// uses fails it — so a form is added with the row that says who issues it.
type dialectRow struct {
	form   string
	sql    string // one statement or a script, run on dialectDB
	params []Value
	issuer string // a file of the module ...
	marker string // ... holding this text
}

// keptRow is a row of keptForms: a form no program issues, and why it
// stays.
type keptRow struct {
	dialectRow
	why string
}

var issuedForms = []dialectRow{
	// Queries (Table II: query, set retrieval).
	{"SELECT … WHERE … GROUP BY … ORDER BY, SUM, AS, TRUE",
		"SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID", nil,
		"examples/bpelroundtrip/main.go", "WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID"},
	{"SELECT *", "SELECT * FROM Orders", nil, "internal/patterns/oracle.go", `"SELECT * FROM Orders"`},
	{"COUNT(*)", "SELECT COUNT(*) FROM OrderConfirmations", nil, "wfsql.go", `"SELECT COUNT(*) FROM OrderConfirmations"`},
	{"COUNT(DISTINCT …)", "SELECT COUNT(DISTINCT ItemID) FROM Orders WHERE Approved = TRUE", nil,
		"wfsql.go", `"SELECT COUNT(DISTINCT ItemID) FROM Orders WHERE Approved = TRUE"`},
	{"AND, >=, ? parameters", "SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE AND Quantity >= ? GROUP BY ItemID ORDER BY ItemID",
		[]Value{Int(2)}, "bench/workloads.go", "WHERE Approved = TRUE AND Quantity >= ? GROUP BY ItemID"},
	{"@name parameters", "SELECT ItemID, Quantity FROM Orders WHERE Quantity >= @minTotal ORDER BY ItemID", []Value{Int(3)},
		"cmd/wfrun/testdata/sample.xoml", "WHERE Total &gt;= @minTotal ORDER BY ItemID"},
	{"JOIN … ON, table aliases, qualified columns", "SELECT o.OrderID, i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.CustID = ?",
		[]Value{Int(7)}, "bench/probes.go", "FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.CustID = ?"},
	{"ORDER BY … DESC, LIMIT", "SELECT OrderID, Quantity FROM Orders WHERE CustID = 7 ORDER BY Quantity DESC, OrderID LIMIT 5", nil,
		"bench/workloads.go", `" ORDER BY Quantity DESC, OrderID LIMIT 5"`},
	{"SELECT without FROM, NEXTVAL (Oracle's ora:sequence-next-val)", "SELECT NEXTVAL(?)", []Value{Str("ids")},
		"internal/orasoa/functions.go", `"SELECT NEXTVAL(?)"`},
	{"EXPLAIN", "EXPLAIN SELECT OrderID, Quantity FROM Orders WHERE CustID = 7 ORDER BY OrderID", nil,
		"cmd/sqlsh/testdata/replan.sql", "EXPLAIN SELECT OrderID, Quantity FROM Orders WHERE CustID = 7 ORDER BY OrderID"},

	// Set-oriented IUD.
	{"INSERT … VALUES, several rows", "INSERT INTO OrderConfirmations VALUES (?, ?, ?), (?, ?, ?)",
		[]Value{Str("nut"), Int(1), Str("a"), Str("bolt"), Int(2), Str("b")}, "internal/bis/activities.go", "b.WriteString(rowPh)"},
	{"INSERT … (columns) VALUES", "INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES ('nut', 3, 'ok')", nil,
		"examples/bpelroundtrip/main.go", "INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES"},
	{"INSERT … SELECT", "INSERT INTO Audit SELECT SUM(Quantity) FROM Orders", nil,
		"examples/dynamicbinding/main.go", `"INSERT INTO Audit SELECT SUM(Quantity) FROM Orders"`},
	{"UPDATE … SET … WHERE", "UPDATE Orders SET Approved = TRUE WHERE Approved = FALSE", nil,
		"internal/patterns/microsoft.go", `"UPDATE Orders SET Approved = TRUE WHERE Approved = FALSE"`},
	{"+", "UPDATE Orders SET Quantity = Quantity + ? WHERE OrderID = ?", []Value{Int(2), Int(1)},
		"bench/workloads.go", `"UPDATE Orders SET Quantity = Quantity + ? WHERE OrderID = ?"`},
	{"DELETE … WHERE", "DELETE FROM Orders WHERE ItemID = 'screw'", nil,
		"internal/patterns/microsoft.go", `"DELETE FROM Orders WHERE ItemID = 'screw'"`},
	{"DELETE without WHERE", "DELETE FROM OrderConfirmations", nil, "wfsql.go", `"DELETE FROM OrderConfirmations"`},

	// Data Setup.
	{"CREATE TABLE: INTEGER, VARCHAR, BOOLEAN, PRIMARY KEY, NOT NULL",
		"CREATE TABLE Suppliers (SupplierID INTEGER PRIMARY KEY, Name VARCHAR NOT NULL, Region VARCHAR NOT NULL, Active BOOLEAN)", nil,
		"bench/workloads.go", "CREATE TABLE Suppliers (SupplierID INTEGER PRIMARY KEY, Name VARCHAR NOT NULL, Region VARCHAR NOT NULL)"},
	{"CREATE TABLE … AS SELECT (BIS result sets)", "CREATE TABLE SR_R_i1 AS SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders GROUP BY ItemID", nil,
		"internal/sqldb/generated.go", `"CREATE TABLE " + name + " AS " + q.src`},
	{"DROP TABLE [IF EXISTS]", "DROP TABLE IF EXISTS OrderConfirmations; DROP TABLE Audit", nil,
		"wfsql.go", `"DROP TABLE IF EXISTS OrderConfirmations"`},
	{"CREATE INDEX", "CREATE INDEX orders_cust ON Orders (CustID)", nil, "bench/workloads.go", "CREATE INDEX orders_cust ON Orders (CustID)"},
	{"CREATE PROCEDURE … AS '…'", "CREATE PROCEDURE totals () AS 'SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders GROUP BY ItemID'", nil,
		"wfsql.go", "CREATE PROCEDURE approved_totals () AS"},
	{"DROP PROCEDURE [IF EXISTS]", "DROP PROCEDURE IF EXISTS approved_totals", nil, "wfsql.go", `"DROP PROCEDURE IF EXISTS approved_totals"`},

	// Stored procedures, transactions.
	{"CALL p()", "CALL approved_totals()", nil, "internal/patterns/ibm.go", `"CALL approved_totals()"`},
	{"BEGIN", "BEGIN", nil, "internal/bis/state.go", `s.Exec("BEGIN")`},
	{"COMMIT", "BEGIN; COMMIT", nil, "internal/bis/state.go", `s.Exec("COMMIT")`},
	{"ROLLBACK (the change stream's record of Session.Rollback)", "BEGIN; ROLLBACK", nil, "internal/sqldb/session.go", `norm: "ROLLBACK"`},

	// What a dump writes: a sequence's state, a FLOAT column, and values
	// as literals — NULL, negative and fractional numbers.
	{"CREATE SEQUENCE … START WITH … INCREMENT BY", "CREATE SEQUENCE s START WITH 5 INCREMENT BY 1", nil,
		"internal/sqldb/dump.go", "CREATE SEQUENCE %s START WITH %d INCREMENT BY %d"},
	{"FLOAT column", "CREATE TABLE Prices (ItemID VARCHAR, Price FLOAT)", nil, "internal/sqldb/dump.go", `fmt.Sprintf("%s %s", c.Name, c.Type)`},
	{"NULL, unary -, fractional literals", "INSERT INTO Items VALUES ('washer', -1.5), ('pin', NULL)", nil,
		"internal/sqldb/dump.go", "v.SQLLiteral()"},
}

// oracleAlphabet is why each of keptForms stays.
const oracleAlphabet = "the predicate alphabet of the differential oracles; together these forms cost the parser's operator list, three cmpMask cases and pred's shared AND/OR arm"

var keptForms = []keptRow{
	{dialectRow{"<>", "SELECT COUNT(*) FROM Orders WHERE OrderID <> 1", nil,
		"internal/sqldb/compile_diff_test.go", `diffCompareOps = []string{"=", "<>", "<", "<=", ">", ">="}`}, oracleAlphabet},
	{dialectRow{"<", "SELECT COUNT(*) FROM Orders WHERE OrderID < 9", nil,
		"internal/sqldb/compile_diff_test.go", `diffCompareOps = []string{"=", "<>", "<", "<=", ">", ">="}`}, oracleAlphabet},
	{dialectRow{"<=", "SELECT COUNT(*) FROM Orders WHERE OrderID <= 8", nil,
		"internal/sqldb/compile_diff_test.go", `diffCompareOps = []string{"=", "<>", "<", "<=", ">", ">="}`}, oracleAlphabet},
	{dialectRow{">", "SELECT COUNT(*) FROM Orders WHERE OrderID > 0", nil,
		"internal/sqldb/compile_diff_test.go", `diffCompareOps = []string{"=", "<>", "<", "<=", ">", ">="}`}, oracleAlphabet},
	{dialectRow{"OR", "SELECT * FROM Orders WHERE OrderID = ? OR ItemID = ?", []Value{Int(1), Str("bolt")},
		"internal/sqldb/slowselect_test.go", `g.pick("OR", "OR", "AND")`}, oracleAlphabet},
}

// ledger is every row: the issued forms, then the kept ones.
func ledger(t *testing.T) []dialectRow {
	rows := slices.Clone(issuedForms)
	for _, k := range keptForms {
		if k.why == "" {
			t.Errorf("kept form %s does not say why it stays", k.form)
		}
		rows = append(rows, k.dialectRow)
	}
	return rows
}

// dialectDB is the database every row runs on: the running example's
// tables, a sequence and a procedure.
func dialectDB(t *testing.T) *DB {
	t.Helper()
	db := Open("dialect")
	if _, err := db.ExecScript(`
		CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, CustID INTEGER, ItemID VARCHAR NOT NULL, Quantity INTEGER, Approved BOOLEAN);
		INSERT INTO Orders VALUES (1, 7, 'bolt', 10, TRUE), (2, 7, 'nut', 3, FALSE), (3, 8, 'screw', 5, TRUE);
		CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, Price FLOAT);
		INSERT INTO Items VALUES ('bolt', 0.5), ('nut', 0.25);
		CREATE TABLE OrderConfirmations (ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR);
		CREATE TABLE Audit (total INTEGER);
		CREATE SEQUENCE ids;
		CREATE PROCEDURE approved_totals () AS 'SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID'`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDialectRowsParseAndRun(t *testing.T) {
	files := map[string]string{}
	for _, r := range ledger(t) {
		stmts, _, err := parseScript(r.sql)
		if err != nil {
			t.Errorf("%s: %s: %v", r.form, r.sql, err)
			continue
		}
		s := dialectDB(t).Session()
		for _, st := range stmts {
			params := r.params
			if _, ok := st.st.(*CallStmt); ok {
				params = nil
			}
			if _, err := s.Exec(st.text, params...); err != nil {
				t.Errorf("%s: %s: %v", r.form, st.text, err)
			}
		}
		text, ok := files[r.issuer]
		if !ok {
			b, err := os.ReadFile(filepath.Join("..", "..", r.issuer))
			if err != nil {
				t.Errorf("%s: issuer: %v", r.form, err)
			}
			text, files[r.issuer] = string(b), string(b)
		}
		if !strings.Contains(text, r.marker) {
			t.Errorf("%s: %s does not hold %q", r.form, r.issuer, r.marker)
		}
	}
}

// grammar is what the parser accepts, read off its source: the first
// keywords of parseStmt, every keyword it consumes or matches, and the
// operator tables.
func grammar(t *testing.T) (leads, kws []string) {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "parser.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(x ast.Expr) (string, bool) {
		b, ok := x.(*ast.BasicLit)
		if !ok || b.Kind != gotoken.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil && s != "" && strings.Trim(s, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") == ""
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasSuffix(sel.Sel.Name, "Kw") && len(n.Args) == 1 {
					if s, ok := lit(n.Args[0]); ok {
						kws = append(kws, s)
					}
				}
			case *ast.CaseClause:
				for _, x := range n.List {
					if s, ok := lit(x); ok {
						kws = append(kws, s)
						if fn.Name.Name == "parseStmt" {
							leads = append(leads, s)
						}
					}
				}
			}
			return true
		})
	}
	return leads, kws
}

func TestDialectNamesEveryForm(t *testing.T) {
	rows := ledger(t)
	used := map[string]bool{} // every token text of every row's example
	kinds := map[string]bool{}
	var leads []string
	for _, r := range rows {
		stmts, _, err := parseScript(r.sql)
		if err != nil {
			t.Fatalf("%s: %v", r.form, err)
		}
		for _, st := range stmts {
			kinds[StmtKind(st.st)] = true
			toks, _ := newLexer(st.text).lexAll()
			leads = append(leads, toks[0].text)
			for i, tok := range toks {
				used[tok.text] = true
				if tok.kind == tokIdent && i+1 < len(toks) && toks[i+1].text == "(" {
					used[strings.ToUpper(tok.text)+"()"] = true
				}
			}
		}
	}
	parseLeads, kws := grammar(t)
	for _, lead := range parseLeads {
		if !slices.Contains(leads, lead) {
			t.Errorf("parseStmt accepts %s, which no row begins with", lead)
		}
	}
	for _, k := range stmtKinds {
		if k != "OTHER" && !kinds[k] {
			t.Errorf("StmtKind %q is no row's kind", k)
		}
	}
	for _, kw := range kws {
		if !used[kw] {
			t.Errorf("the parser accepts keyword %s, which no row uses", kw)
		}
		if !keywords[kw] {
			t.Errorf("the parser accepts %s, which the lexer never makes a keyword", kw)
		}
	}
	for kw := range keywords {
		if !slices.Contains(kws, kw) {
			t.Errorf("keyword %s is lexed but the parser never accepts it", kw)
		}
	}
	for _, op := range slices.Concat(compareOps, additiveOps) {
		if !used[op] {
			t.Errorf("the parser accepts operator %s, which no row uses", op)
		}
	}
	for name := range scalarFuncs {
		if !used[name+"()"] {
			t.Errorf("scalar function %s is named by no row", name)
		}
	}
	for _, name := range aggregateNames {
		if !used[name] {
			t.Errorf("aggregate %s is named by no row", name)
		}
	}
}

// TestDropErrorNamesEveryKind: an unknown DROP names both kinds the
// parser accepts; the kinds it no longer has are refused.
func TestDropErrorNamesEveryKind(t *testing.T) {
	_, err := Parse("DROP TRIGGER x")
	if err == nil {
		t.Fatal("DROP TRIGGER parsed")
	}
	for _, kind := range []string{"TABLE", "PROCEDURE"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("%q does not name %s", err, kind)
		}
	}
	refused(t, "DROP INDEX orders_cust", "DROP SEQUENCE ids", "DROP VIEW v")
}

// TestScalarFunctions: the scalar-function library is NEXTVAL; every
// function it once held is unknown, and + computes what CONCAT stood in
// for.
func TestScalarFunctions(t *testing.T) {
	db := dialectDB(t)
	for sql, want := range map[string]string{
		"SELECT NEXTVAL('ids'), NEXTVAL('IDS')": "[[1 2]]",
		"SELECT 'a' + 'b' + 1":                  "[[ab1]]",
		"SELECT 2 + 3 + 4, 2 + (3 + 0.5)":       "[[9 5.5]]",
		"SELECT -4, -1.5, -(2 + 1)":             "[[-4 -1.5 -3]]",
	} {
		if got := queryRows(t, db, sql); got != want {
			t.Errorf("%s: %s, want %s", sql, got, want)
		}
	}
	for _, fn := range []string{"UPPER('a')", "LOWER('a')", "LENGTH('a')", "TRIM('a')", "ABS(-1)", "MOD(3, 2)",
		"REPLACE('a', 'a', 'b')", "POSITION('a', 'ab')", "INSTR('a', 'ab')", "LEFT('ab', 1)", "RIGHT('ab', 1)",
		"SIGN(1)", "POWER(2, 2)", "SQRT(4)", "FLOOR(1.5)", "CEIL(1.5)", "CEILING(1.5)", "ROUND(1.5)",
		"COALESCE(NULL, 1)", "NULLIF(1, 1)", "CONCAT('a', 'b')", "SUBSTR('ab', 1)", "SUBSTRING('ab', 1)",
		"GREATEST(1, 2)", "LEAST(1, 2)"} {
		if _, err := db.Exec("SELECT " + fn); err == nil || !strings.Contains(err.Error(), "unknown function") && !strings.Contains(err.Error(), "parse error") {
			t.Errorf("%s: %v", fn, err)
		}
	}
	if _, err := db.Exec("SELECT NEXTVAL(1)"); err == nil {
		t.Error("NEXTVAL of a number")
	}
}

// TestUnissuedFormsAreRefused: every form keptForms held that no program
// issues and no differential oracle stands on is cut; its ledger example
// no longer parses, one form a line.
func TestUnissuedFormsAreRefused(t *testing.T) {
	refused(t,
		"SELECT COUNT(*) FROM Orders WHERE NOT Approved",
		"SELECT COUNT(*) FROM Orders WHERE ItemID NOT IN ('bolt', 'nut') AND ItemID IN ('screw')",
		"SELECT COUNT(*) FROM Orders WHERE CustID IS NULL OR CustID IS NOT NULL",
		"SELECT COUNT(*) FROM Orders WHERE OrderID != 2",
		"SELECT Quantity - 1 FROM Orders", "SELECT Quantity * 2 FROM Orders", "SELECT Quantity / 2 FROM Orders", "SELECT Quantity % 2 FROM Orders",
		"SELECT ItemID || '-x' FROM Orders",
		"SELECT DISTINCT ItemID FROM Orders",
		"SELECT OrderID FROM Orders ORDER BY OrderID LIMIT 2 OFFSET 3",
		"SELECT o.* FROM Orders o JOIN Items i ON o.ItemID = i.ItemID", "SELECT * FROM Orders o, Items", "SELECT * FROM Orders CROSS JOIN Audit",
		"SELECT AVG(Quantity) FROM Orders", "SELECT MIN(ItemID) FROM Orders", "SELECT MAX(Quantity) FROM Orders", "SELECT SUM(DISTINCT Quantity) FROM Orders",
		"SELECT ItemID, COUNT(*) FROM Orders GROUP BY 1", "SELECT ItemID FROM Orders ORDER BY 2",
		"SELECT COUNT(*) FROM Orders WHERE ItemID = :item", "CREATE PROCEDURE by_item (item) AS 'SELECT COUNT(*) FROM Orders'", "CALL by_item('nut')",
		"CREATE TABLE IF NOT EXISTS Notes (ID INTEGER)", "CREATE TABLE Notes (Body VARCHAR DEFAULT 'none')",
		"CREATE TABLE Notes (ID INT)", "CREATE TABLE Notes (Body TEXT)", "CREATE TABLE Notes (Done BOOL)", "CREATE TABLE Notes (Tag VARCHAR(8))",
		"CREATE TABLE Notes (ID INTEGER, Seq INTEGER, PRIMARY KEY (ID, Seq))",
		"CREATE UNIQUE INDEX orders_item ON Orders (OrderID, ItemID)")
}

// --- Forms the dialect refuses ---
//
// These forms were in the dialect with no issuer. Each test that covered
// one keeps its name and checks that the parser refuses the form.

// refused parses sql, which must fail with the parser's or lexer's error.
func refused(t *testing.T, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		if _, _, err := parseScript(sql); err == nil || !strings.Contains(err.Error(), "error") {
			t.Errorf("%s: parsed (%v)", sql, err)
		}
	}
}

func TestHaving(t *testing.T) {
	refused(t, "SELECT ItemID, COUNT(*) AS n FROM Orders GROUP BY ItemID HAVING COUNT(*) >= 2",
		"SELECT COUNT(*) FROM Orders HAVING COUNT(*) >= 2")
}

func TestLeftJoin(t *testing.T) {
	refused(t, "SELECT o.OrderID, i.Price FROM Orders o LEFT JOIN Items i ON o.ItemID = i.ItemID",
		"SELECT o.OrderID FROM Orders o LEFT OUTER JOIN Items i ON o.ItemID = i.ItemID",
		"SELECT OrderID, Price FROM Orders LEFT JOIN Items ON CustID = CID",
		"SELECT OrderID FROM Orders AS LEFT JOIN Items ON CustID = CID",
		"SELECT OrderID FROM Orders INNER JOIN Items ON CustID = CID",
		"SELECT OrderID FROM Orders RIGHT JOIN Items ON CustID = CID")
}

func TestSubqueryScalar(t *testing.T) {
	refused(t, "SELECT OrderID FROM Orders WHERE Quantity = (SELECT MAX(Quantity) FROM Orders)")
}

func TestSubqueryIn(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM Orders WHERE ItemID NOT IN (SELECT ItemID FROM Banned)")
}

func TestCorrelatedExists(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM Orders o WHERE EXISTS (SELECT 1 FROM Items i WHERE i.ItemID = o.ItemID)")
}

func TestDerivedTables(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM (SELECT ItemID FROM Orders) d")
}

func TestBetween(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM Orders WHERE Quantity BETWEEN 3 AND 7",
		"SELECT COUNT(*) FROM Orders WHERE Quantity NOT BETWEEN 3 AND 7")
}

func TestLike(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM Orders WHERE ItemID LIKE 'b%'",
		"SELECT COUNT(*) FROM Orders WHERE ItemID NOT LIKE '%t'")
}

func TestCaseExpr(t *testing.T) {
	refused(t, "SELECT SUM(CASE WHEN Approved = TRUE THEN Quantity ELSE 0 END) FROM Orders",
		"SELECT CASE ItemID WHEN 'bolt' THEN 'B' ELSE 'X' END FROM Orders")
}

func TestUnion(t *testing.T) {
	refused(t, "SELECT ItemID FROM Orders UNION SELECT ItemID FROM Items",
		"SELECT ItemID FROM Orders UNION ALL SELECT ItemID FROM Items")
}

func TestUnionTailBindsToChain(t *testing.T) {
	refused(t, "SELECT OrderID FROM Orders UNION ALL SELECT 1 ORDER BY 1 LIMIT 2")
}

func TestViews(t *testing.T) {
	refused(t, "CREATE VIEW ApprovedTotals AS SELECT ItemID, SUM(Quantity) AS Total FROM Orders GROUP BY ItemID",
		"DROP VIEW ApprovedTotals")
}

func TestAlterTable(t *testing.T) {
	refused(t, "ALTER TABLE Orders ADD COLUMN Priority INTEGER DEFAULT 5",
		"ALTER TABLE Orders DROP COLUMN Priority", "ALTER TABLE Orders RENAME TO Archive")
}

func TestTruncate(t *testing.T) {
	refused(t, "TRUNCATE TABLE Orders", "TRUNCATE Orders")
}

func TestQuotedIdentifier(t *testing.T) {
	refused(t, `CREATE TABLE "Select" ("order" INTEGER)`, `SELECT "order" FROM t`)
}

func TestQuickLikeMatchesReference(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM t WHERE a LIKE 'céÉ%_kK'")
}

// FuzzLike: LIKE is refused whatever its operands, invalid UTF-8 included.
func FuzzLike(f *testing.F) {
	f.Add("abc", "a%c")
	f.Add("é", "_")
	f.Add("K", "k")
	f.Add(strings.Repeat("a", 40), strings.Repeat("%a", 8)+"%b")
	f.Add("a\xffb", "a_b")
	f.Fuzz(func(t *testing.T, s, p string) {
		quote := func(v string) string { return "'" + strings.ReplaceAll(v, "'", "''") + "'" }
		refused(t, "SELECT COUNT(*) FROM t WHERE "+quote(s)+" LIKE "+quote(p))
	})
}

func TestDistinct(t *testing.T) {
	refused(t, "SELECT DISTINCT ItemID FROM Orders ORDER BY ItemID")
}

func TestOrderByPosition(t *testing.T) {
	refused(t, "SELECT OrderID, Quantity FROM Orders ORDER BY 2 DESC LIMIT 1")
}

func TestCrossJoinComma(t *testing.T) {
	refused(t, "SELECT x, y FROM a, b", "SELECT x, y FROM a CROSS JOIN b")
}

func TestQualifiedStar(t *testing.T) {
	refused(t, "SELECT o.* FROM Orders o JOIN Items i ON o.ItemID = i.ItemID")
}

func TestInList(t *testing.T) {
	refused(t, "SELECT COUNT(*) FROM Orders WHERE ItemID IN ('bolt', 'screw')",
		"SELECT COUNT(*) FROM Orders WHERE ItemID NOT IN ('bolt')", "SELECT COUNT(*) FROM Orders WHERE NOT Approved")
}

func TestDivisionByZero(t *testing.T) {
	refused(t, "SELECT 1 / 0", "SELECT 7 % 2", "SELECT 2 * 3", "SELECT 3 - 1", "SELECT 'a' || 'b'", "SELECT 1 != 2")
}

func TestUniqueIndex(t *testing.T) {
	refused(t, "CREATE UNIQUE INDEX u_a ON u (a)")
}

func TestDefaultValues(t *testing.T) {
	refused(t, "CREATE TABLE d (a INTEGER, b VARCHAR DEFAULT 'none', c BOOLEAN DEFAULT FALSE)")
}
