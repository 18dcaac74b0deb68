package bis

import (
	"fmt"
	"strings"
	"testing"

	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

func ordersDB() *sqldb.DB {
	db := sqldb.Open("orderdb")
	db.MustExec(`CREATE TABLE Orders (
		OrderID INTEGER PRIMARY KEY, ItemID VARCHAR NOT NULL,
		Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL)`)
	db.MustExec(`INSERT INTO Orders VALUES
		(1, 'bolt', 10, TRUE), (2, 'bolt', 5, TRUE), (3, 'nut', 7, FALSE),
		(4, 'nut', 3, TRUE), (5, 'screw', 2, TRUE), (6, 'screw', 9, FALSE)`)
	db.MustExec(`CREATE TABLE OrderConfirmations (
		ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR)`)
	return db
}

func newEngine(db *sqldb.DB) (*engine.Engine, *wsbus.OrderFromSupplierService) {
	bus := wsbus.New()
	svc := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", svc.Handle)
	e := engine.New(bus)
	e.RegisterDataSource("orderdb", db)
	return e, svc
}

func TestSQLActivityDML(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("dml").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(NewSQL("approve", "DS", "UPDATE #SR_Orders# SET Approved = TRUE WHERE Approved = FALSE")).
		Build()
	d, err := e.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT COUNT(*) FROM Orders WHERE Approved = TRUE")
	if r.Rows[0][0].I != 6 {
		t.Fatalf("approved count: %v", r.Rows[0][0])
	}
}

func TestSQLActivityHostVariables(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("host").
		DataSourceVariable("DS", "orderdb").
		Variable("minQty", "5").
		Variable("item", "bolt").
		InputSetReference("SR_Orders", "Orders").
		Body(NewSQL("del", "DS",
			"DELETE FROM #SR_Orders# WHERE ItemID = #item# AND Quantity >= #minQty#")).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT COUNT(*) FROM Orders")
	if r.Rows[0][0].I != 4 {
		t.Fatalf("rows after parametrized delete: %v", r.Rows[0][0])
	}
}

func TestResultSetReferenceStaysExternal(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	db.ResetStats()
	var boundTable string
	p := NewProcess("queryref").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_ItemList").
		Body(engine.NewSequence("main",
			NewSQL("SQL1", "DS",
				`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
				 WHERE Approved = TRUE GROUP BY ItemID`).Into("SR_ItemList"),
			JavaSnippet("inspect", func(ctx *engine.Ctx) error {
				ref, err := SetReference(ctx, "SR_ItemList")
				if err != nil {
					return err
				}
				boundTable = ref.Table
				return nil
			}),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if boundTable == "" || !strings.HasPrefix(boundTable, "SR_ItemList_i") {
		t.Fatalf("generated table name: %q", boundTable)
	}
	// The result was materialized in the data source, and the result table
	// is dropped at the end of the workflow (default cleanup).
	if db.HasTable(boundTable) {
		t.Fatalf("result table %s should be dropped at workflow end", boundTable)
	}
	// No result-set bytes entered the process space.
	if st := db.Stats(); st.BytesReturned != 0 {
		t.Fatalf("result bytes leaked to process space: %d", st.BytesReturned)
	}
}

func TestRetrieveSetMaterializes(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	var count int
	p := NewProcess("retrieve").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_ItemList").
		XMLVariable("SV_ItemList", "").
		Body(engine.NewSequence("main",
			NewSQL("SQL1", "DS",
				`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
				 WHERE Approved = TRUE GROUP BY ItemID`).Into("SR_ItemList"),
			NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
			JavaSnippet("count", func(ctx *engine.Ctx) error {
				var err error
				count, err = TupleCount(ctx, "SV_ItemList")
				return err
			}),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("materialized tuples: %d", count)
	}
}

// TestFigure4Workflow reproduces the paper's Figure 4 sample workflow on
// the BIS stack: SQL1 aggregates approved orders per item type into a
// result set reference, retrieve set materializes it, the while+snippet
// cursor iterates, invoke orders from the supplier, and SQL2 records each
// confirmation.
func TestFigure4Workflow(t *testing.T) {
	db := ordersDB()
	e, svc := newEngine(db)

	body := engine.NewSequence("main",
		NewSQL("SQL1", "DS",
			`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
			 WHERE Approved = TRUE GROUP BY ItemID`).Into("SR_ItemList"),
		NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
		CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos",
			engine.NewSequence("body",
				engine.NewAssign("extract").
					Copy("$CurrentItem/ItemID", "CurrentItemID").
					Copy("$CurrentItem/Quantity", "CurrentQuantity"),
				engine.NewInvoke("invoke", "OrderFromSupplier").
					In("ItemID", "$CurrentItem/ItemID").
					In("Quantity", "$CurrentItem/Quantity").
					Out("OrderConfirmation", "OrderConfirmation"),
				NewSQL("SQL2", "DS",
					`INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation)
					 VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)`),
			)),
	)

	p := NewProcess("Fig4").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		ResultSetReference("SR_ItemList").
		XMLVariable("SV_ItemList", "").
		XMLVariable("CurrentItem", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("pos", "1").
		Body(body).
		Build()

	d, err := e.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}

	// Aggregated, approved quantities: bolt 15, nut 3, screw 2.
	r := db.MustExec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
	if len(r.Rows) != 3 {
		t.Fatalf("confirmations: %d", len(r.Rows))
	}
	wants := map[string]int64{"bolt": 15, "nut": 3, "screw": 2}
	for _, row := range r.Rows {
		item := row[0].S
		if row[1].I != wants[item] {
			t.Errorf("%s quantity: %d, want %d", item, row[1].I, wants[item])
		}
		wantConf := fmt.Sprintf("CONFIRMED:%s:%d", item, wants[item])
		if row[2].S != wantConf {
			t.Errorf("%s confirmation: %q, want %q", item, row[2].S, wantConf)
		}
		if svc.Ordered(item) != wants[item] {
			t.Errorf("%s supplier total: %d", item, svc.Ordered(item))
		}
	}
}

func TestDynamicDataSourceRebinding(t *testing.T) {
	testDB := sqldb.Open("testenv")
	prodDB := sqldb.Open("prodenv")
	for _, db := range []*sqldb.DB{testDB, prodDB} {
		db.MustExec("CREATE TABLE Log (msg VARCHAR)")
	}
	e := engine.New(nil)
	e.RegisterDataSource("testenv", testDB)
	e.RegisterDataSource("prodenv", prodDB)

	body := engine.NewSequence("main",
		NewSQL("log1", "DS", "INSERT INTO Log VALUES ('first')"),
		JavaSnippet("switch", func(ctx *engine.Ctx) error {
			return RebindDataSource(ctx, "DS", "prodenv")
		}),
		NewSQL("log2", "DS", "INSERT INTO Log VALUES ('second')"),
	)
	p := NewProcess("rebind").
		DataSourceVariable("DS", "testenv").
		Body(body).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := testDB.MustExec("SELECT COUNT(*) FROM Log").Rows[0][0].I; n != 1 {
		t.Fatalf("test env rows: %d", n)
	}
	if n := prodDB.MustExec("SELECT COUNT(*) FROM Log").Rows[0][0].I; n != 1 {
		t.Fatalf("prod env rows: %d", n)
	}
}

func TestRebindErrors(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("rebindErr").
		DataSourceVariable("DS", "orderdb").
		Body(JavaSnippet("bad", func(ctx *engine.Ctx) error {
			if err := RebindDataSource(ctx, "DS", "nope"); err == nil {
				t.Error("expected unknown data source error")
			}
			if err := RebindDataSource(ctx, "NotAVar", "orderdb"); err == nil {
				t.Error("expected unknown ds variable error")
			}
			return nil
		})).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPreparationAndCleanup(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	sawDuring := false
	p := NewProcess("lifecycle").
		DataSourceVariable("DS", "orderdb").
		Preparation("DS", "CREATE TABLE Staging (x INTEGER)").
		Cleanup("DS", "DROP TABLE Staging").
		Body(JavaSnippet("check", func(ctx *engine.Ctx) error {
			sawDuring = db.HasTable("Staging")
			return nil
		})).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !sawDuring {
		t.Fatal("preparation table missing during execution")
	}
	if db.HasTable("Staging") {
		t.Fatal("cleanup did not drop the table")
	}
}

// fault is a snippet raising the named process fault.
func fault(name, faultName string) engine.Activity {
	return engine.NewSnippet(name, func(ctx *engine.Ctx) error {
		return &engine.Fault{Name: faultName, Activity: name}
	})
}

func TestCleanupRunsOnFault(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("faulty").
		DataSourceVariable("DS", "orderdb").
		Preparation("DS", "CREATE TABLE Temp1 (x INTEGER)").
		Cleanup("DS", "DROP TABLE IF EXISTS Temp1").
		Body(fault("boom", "err")).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected fault")
	}
	if db.HasTable("Temp1") {
		t.Fatal("cleanup must run even on fault")
	}
}

func TestAtomicSQLSequenceRollsBackOnFault(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("atomic").
		Mode(engine.LongRunning).
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(NewAtomicSequence("atomicSeq",
			NewSQL("del", "DS", "DELETE FROM #SR_Orders#"),
			NewSQL("bad", "DS", "INSERT INTO NoSuchTable VALUES (1)"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected fault")
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders").Rows[0][0].I; n != 6 {
		t.Fatalf("atomic sequence leaked partial work: %d rows", n)
	}
}

func TestAtomicSQLSequenceCommits(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("atomicOK").
		Mode(engine.LongRunning).
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(NewAtomicSequence("atomicSeq",
			NewSQL("upd1", "DS", "UPDATE #SR_Orders# SET Quantity = Quantity + 1"),
			NewSQL("upd2", "DS", "UPDATE #SR_Orders# SET Quantity = Quantity + 1"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := db.MustExec("SELECT SUM(Quantity) FROM Orders").Rows[0][0].I; n != 48 {
		t.Fatalf("sum after atomic updates: %d", n)
	}
}

func TestShortRunningProcessIsSingleTransaction(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	// In a short-running process all SQL activities run in one transaction:
	// a fault rolls back everything without an explicit atomic sequence.
	p := NewProcess("short").
		Mode(engine.ShortRunning).
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(engine.NewSequence("main",
			NewSQL("del", "DS", "DELETE FROM #SR_Orders#"),
			fault("boom", "late"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected fault")
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders").Rows[0][0].I; n != 6 {
		t.Fatalf("short-running fault must roll back all SQL work: %d rows", n)
	}
}

func TestLongRunningCommitsPerActivity(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("long").
		Mode(engine.LongRunning).
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(engine.NewSequence("main",
			NewSQL("del", "DS", "DELETE FROM #SR_Orders# WHERE OrderID = 1"),
			fault("boom", "late"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected fault")
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders").Rows[0][0].I; n != 5 {
		t.Fatalf("long-running SQL activity should have committed: %d rows", n)
	}
}

func TestTupleIUDWorkarounds(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	var after int
	var firstItem string
	p := NewProcess("tuples").
		DataSourceVariable("DS", "orderdb").
		XMLVariable("SV", `<RowSet><Row num="1"><ItemID>bolt</ItemID><Quantity>1</Quantity></Row></RowSet>`).
		Body(engine.NewSequence("main",
			JavaSnippet("insert", func(ctx *engine.Ctx) error {
				return InsertTuple(ctx, "SV", []string{"ItemID", "Quantity"}, []string{"nut", "9"})
			}),
			// Assign + XPath covers update (the abstract-level part).
			engine.NewAssign("update").CopyTo("'washer'", "SV", "Row[1]/ItemID"),
			JavaSnippet("delete", func(ctx *engine.Ctx) error {
				return DeleteTuple(ctx, "SV", 1)
			}),
			JavaSnippet("verify", func(ctx *engine.Ctx) error {
				var err error
				after, err = TupleCount(ctx, "SV")
				if err != nil {
					return err
				}
				sv, _ := ctx.Variable("SV")
				firstItem = rowset.Field(rowset.Row(sv.Node(), 0), "ItemID")
				return nil
			}),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if after != 1 {
		t.Fatalf("tuples after IUD: %d", after)
	}
	if firstItem != "washer" {
		t.Fatalf("first item after update: %q", firstItem)
	}
}

func TestSynchronizationWorkaround(t *testing.T) {
	// The paper: "one may specify appropriate UPDATE statements in an SQL
	// activity in order to realize the Synchronization Pattern."
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("sync").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		XMLVariable("SV", "").
		ResultSetReference("SR_Work").
		Variable("newQty", "").
		Body(engine.NewSequence("main",
			NewSQL("q", "DS", "SELECT OrderID, Quantity FROM #SR_Orders# WHERE OrderID = 1").Into("SR_Work"),
			NewRetrieveSet("r", "DS", "SR_Work", "SV"),
			// Local processing: double the quantity in the cache.
			JavaSnippet("double", func(ctx *engine.Ctx) error {
				sv, _ := ctx.Variable("SV")
				row := rowset.Row(sv.Node(), 0)
				q := rowset.Field(row, "Quantity")
				rowset.SetField(row, "Quantity", q+"0") // 10 -> 100
				return ctx.SetScalar("newQty", q+"0")
			}),
			// Synchronization workaround: push the change back via UPDATE.
			NewSQL("push", "DS", "UPDATE #SR_Orders# SET Quantity = #newQty# WHERE OrderID = 1"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if n := db.MustExec("SELECT Quantity FROM Orders WHERE OrderID = 1").Rows[0][0].I; n != 100 {
		t.Fatalf("synchronized quantity: %d", n)
	}
}

func TestSetRefLifecycleStatements(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("reflc").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Stage", "StageTable").
		SetRefLifecycle("SR_Stage",
			"CREATE TABLE {TABLE} (x INTEGER)",
			"DROP TABLE IF EXISTS {TABLE}").
		Body(NewSQL("fill", "DS", "INSERT INTO #SR_Stage# VALUES (1)")).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("StageTable") {
		t.Fatal("set-reference cleanup did not drop the table")
	}
}

func TestStoredProcedureIntoResultRef(t *testing.T) {
	db := ordersDB()
	db.MustExec(`CREATE PROCEDURE totals () AS
		'SELECT ItemID, SUM(Quantity) AS Total FROM Orders GROUP BY ItemID ORDER BY ItemID'`)
	e, _ := newEngine(db)
	var rows int64
	p := NewProcess("sp").
		DataSourceVariable("DS", "orderdb").
		ResultSetReference("SR_R").
		Body(engine.NewSequence("m",
			NewSQL("call", "DS", "CALL totals()").Into("SR_R"),
			JavaSnippet("check", func(ctx *engine.Ctx) error {
				ref, err := SetReference(ctx, "SR_R")
				if err != nil {
					return err
				}
				r := db.MustExec("SELECT COUNT(*) FROM " + ref.Table)
				rows = r.Rows[0][0].I
				// The materialized table has typed columns.
				r2 := db.MustExec("SELECT Total FROM " + ref.Table + " WHERE ItemID = 'bolt'")
				if r2.Rows[0][0].I != 15 {
					return fmt.Errorf("typed materialization: %v", r2.Rows[0][0])
				}
				return nil
			}))).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("procedure result rows: %d", rows)
	}
}

func TestResultRefRejectsNonQuery(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("bad").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_R").
		Body(NewSQL("upd", "DS", "UPDATE #SR_Orders# SET Quantity = 1").Into("SR_R")).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("DML into a result ref must fail")
	}
	// Filling an input ref is also invalid.
	p2 := NewProcess("bad2").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(NewSQL("q", "DS", "SELECT * FROM #SR_Orders#").Into("SR_Orders")).
		Build()
	d2, _ := e.Deploy(p2)
	if _, err := d2.Run(nil); err == nil {
		t.Fatal("query into an input ref must fail")
	}
}

func TestBindSetReferenceAtRuntime(t *testing.T) {
	db := ordersDB()
	db.MustExec("CREATE TABLE OrdersArchive (OrderID INTEGER, ItemID VARCHAR, Quantity INTEGER, Approved BOOLEAN)")
	db.MustExec("INSERT INTO OrdersArchive VALUES (100, 'old', 1, TRUE)")
	e, _ := newEngine(db)
	var count int64
	p := NewProcess("rebindref").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_T", "Orders").
		ResultSetReference("SR_R").
		Body(engine.NewSequence("m",
			JavaSnippet("switch", func(ctx *engine.Ctx) error {
				// Dynamically choose at runtime which table to use.
				return BindSetReference(ctx, "SR_T", "OrdersArchive")
			}),
			NewSQL("q", "DS", "SELECT COUNT(*) AS n FROM #SR_T#").Into("SR_R"),
			JavaSnippet("read", func(ctx *engine.Ctx) error {
				ref, _ := SetReference(ctx, "SR_R")
				count = db.MustExec("SELECT n FROM " + ref.Table).Rows[0][0].I
				return nil
			}))).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("rebound set reference count: %d", count)
	}
	// Unknown reference errors.
	p2 := NewProcess("badref").
		DataSourceVariable("DS", "orderdb").
		Body(JavaSnippet("bad", func(ctx *engine.Ctx) error {
			return BindSetReference(ctx, "Missing", "x")
		})).
		Build()
	d2, _ := e.Deploy(p2)
	if _, err := d2.Run(nil); err == nil {
		t.Fatal("expected unknown set reference error")
	}
}

func TestScalarValueConversion(t *testing.T) {
	cases := map[string]sqldb.Kind{
		"42":    sqldb.KindInt,
		"-7":    sqldb.KindInt,
		"3.5":   sqldb.KindFloat,
		"true":  sqldb.KindBool,
		"FALSE": sqldb.KindBool,
		"hello": sqldb.KindString,
		"":      sqldb.KindString,
	}
	for in, want := range cases {
		if got := scalarValue(in).K; got != want {
			t.Errorf("scalarValue(%q) kind = %v, want %v", in, got, want)
		}
	}
}

func TestStateRequiresBuilder(t *testing.T) {
	e := engine.New(nil)
	p := &engine.Process{Name: "raw", Body: NewSQL("q", "DS", "SELECT 1")}
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil || !strings.Contains(err.Error(), "ProcessBuilder") {
		t.Fatalf("expected builder error, got %v", err)
	}
}

func TestUnterminatedHostVariable(t *testing.T) {
	db := ordersDB()
	e, _ := newEngine(db)
	p := NewProcess("badsql").
		DataSourceVariable("DS", "orderdb").
		Body(NewSQL("q", "DS", "SELECT #oops FROM Orders")).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected unterminated placeholder error")
	}
}

// TestGeneratedTableCleanupFollowsItsDataSource: a result table is
// dropped on the data source it was created on, not on whichever data
// source variable a map iteration yields first — with two variables the
// DROP used to go to the wrong database and SR_R_i<N> survived.
func TestGeneratedTableCleanupFollowsItsDataSource(t *testing.T) {
	a, b := sqldb.Open("a"), ordersDB()
	e := engine.New(nil)
	e.RegisterDataSource("a", a)
	e.RegisterDataSource("b", b)
	d, err := e.Deploy(NewProcess("two").
		DataSourceVariable("DSA", "a").
		DataSourceVariable("DSB", "b").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_R").
		XMLVariable("SV", "").
		Body(engine.NewSequence("main",
			NewSQL("q", "DSB", "SELECT ItemID FROM #SR_Orders# WHERE Approved = TRUE").Into("SR_R"),
			NewRetrieveSet("r", "DSB", "SR_R", "SV"))).
		Build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		in, err := d.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := rowset.Count(in.MustVariable("SV").Node()); n != 4 {
			t.Fatalf("run %d retrieved %d rows, want 4", i, n)
		}
		for _, db := range []*sqldb.DB{a, b} {
			for _, name := range db.TableNames() {
				if strings.HasPrefix(strings.ToUpper(name), "SR_") {
					t.Fatalf("run %d left %s behind in data source %s", i, name, db.Name())
				}
			}
		}
	}
}

// TestDeployRefusesUnnamedActivityInAtomicSequence: Deploy's
// unnamed-activity check walks into an atomic SQL sequence and into the
// activity a journaled one wraps, as it does into a Sequence.
func TestDeployRefusesUnnamedActivityInAtomicSequence(t *testing.T) {
	e, _ := newEngine(ordersDB())
	for _, body := range []engine.Activity{
		NewAtomicSequence("a", NewSQL("", "DS", "DELETE FROM Orders")),
		engine.NewSequence("m", NewAtomicSequence("a", NewSQL("ok", "DS", "DELETE FROM Orders"),
			NewSQL("", "DS", "DELETE FROM Orders"))),
		engine.NewSequence("m", engine.Journaled(engine.NewSequence("j", NewSQL("", "DS", "DELETE FROM Orders")), journal.EffectSQL)),
	} {
		p := NewProcess("unnamed").DataSourceVariable("DS", "orderdb").Body(body).Build()
		if _, err := e.Deploy(p); err == nil || !strings.Contains(err.Error(), "unnamed activity") {
			t.Errorf("%v: Deploy returned %v, want the unnamed-activity error", engine.ActivityNames(body), err)
		}
	}
}
