package orasoa

import (
	"fmt"
	"strings"
	"testing"

	"wfsql/internal/engine"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
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

// instance is an instance of an empty process over f, not yet run: what
// an extension function call runs its SQL as part of.
func instance(t *testing.T, f *Functions) *engine.Instance {
	t.Helper()
	d, err := engine.New(nil).Deploy(&engine.Process{Name: "calls", Body: &engine.Empty{ActivityName: "empty"}, Funcs: f})
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func callFn(t *testing.T, f *Functions, name string, args ...xpath.Value) xpath.Value {
	t.Helper()
	v, err := f.CallFunction(instance(t, f), name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestQueryDatabase(t *testing.T) {
	db := ordersDB()
	f := NewFunctions(db)
	v := callFn(t, f, "ora:query-database",
		xpath.String("SELECT ItemID, Quantity FROM Orders WHERE Approved = TRUE ORDER BY OrderID"))
	if v.Kind != xpath.KindNodeSet || len(v.Nodes) != 1 {
		t.Fatalf("result shape: %v", v)
	}
	rs := v.Nodes[0]
	if rowset.Count(rs) != 4 {
		t.Fatalf("rows: %d", rowset.Count(rs))
	}
	if rowset.Field(rowset.Row(rs, 0), "ItemID") != "bolt" {
		t.Fatalf("first row: %s", rowset.Row(rs, 0))
	}
	if f.Calls("query-database") != 1 {
		t.Fatalf("call counter: %d", f.Calls("query-database"))
	}
}

func TestSequenceNextVal(t *testing.T) {
	db := ordersDB()
	db.MustExec("CREATE SEQUENCE confirmation_seq START WITH 100 INCREMENT BY 10")
	f := NewFunctions(db)
	v1 := callFn(t, f, "ora:sequence-next-val", xpath.String("confirmation_seq"))
	v2 := callFn(t, f, "orcl:sequence-next-val", xpath.String("confirmation_seq"))
	if v1.AsNumber() != 100 || v2.AsNumber() != 110 {
		t.Fatalf("sequence values: %v %v", v1.AsNumber(), v2.AsNumber())
	}
}

func TestLookupTable(t *testing.T) {
	db := ordersDB()
	f := NewFunctions(db)
	v := callFn(t, f, "orcl:lookup-table",
		xpath.String("ItemID"), xpath.String("Orders"), xpath.String("OrderID"), xpath.Number(4))
	if v.AsString() != "nut" {
		t.Fatalf("lookup: %q", v.AsString())
	}
	// Missing key -> empty string.
	v = callFn(t, f, "orcl:lookup-table",
		xpath.String("ItemID"), xpath.String("Orders"), xpath.String("OrderID"), xpath.Number(999))
	if v.AsString() != "" {
		t.Fatalf("missing key: %q", v.AsString())
	}
	// Non-unique key -> error.
	if _, err := f.CallFunction(instance(t, f), "orcl:lookup-table", []xpath.Value{
		xpath.String("OrderID"), xpath.String("Orders"), xpath.String("ItemID"), xpath.String("bolt")}); err == nil {
		t.Fatal("expected non-unique error")
	}
	// SQL injection via identifiers is rejected.
	if _, err := f.CallFunction(instance(t, f), "orcl:lookup-table", []xpath.Value{
		xpath.String("ItemID; DROP TABLE Orders"), xpath.String("Orders"),
		xpath.String("OrderID"), xpath.Number(1)}); err == nil {
		t.Fatal("expected invalid identifier error")
	}
}

func TestProcessXSQLQueryAndDML(t *testing.T) {
	db := ordersDB()
	f := NewFunctions(db)
	err := f.XSQL().RegisterPage("confirmations", `
		<xsql:page>
			<xsql:dml>INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation)
				VALUES ({@item}, {@qty}, {@conf})</xsql:dml>
			<xsql:query name="all">SELECT COUNT(*) AS n FROM OrderConfirmations</xsql:query>
		</xsql:page>`)
	if err != nil {
		t.Fatal(err)
	}
	v := callFn(t, f, "ora:processXSQL",
		xpath.String("confirmations"),
		xpath.String("item"), xpath.String("bolt"),
		xpath.String("qty"), xpath.String("15"),
		xpath.String("conf"), xpath.String("CONFIRMED:bolt:15"))
	doc := v.Nodes[0]
	if doc.ChildText("rowsAffected") != "1" {
		t.Fatalf("dml rows: %q", doc.ChildText("rowsAffected"))
	}
	n := db.MustExec("SELECT Quantity FROM OrderConfirmations").Rows[0][0]
	if n.I != 15 {
		t.Fatalf("inserted quantity: %v (numeric params must stay numeric)", n)
	}
	all := doc.FirstChildElement("all")
	if all == nil || rowset.Field(rowset.Row(all.FirstChildElement("RowSet"), 0), "n") != "1" {
		t.Fatalf("query part: %s", doc)
	}
}

func TestProcessXSQLStoredProcedureAndDDL(t *testing.T) {
	db := ordersDB()
	db.MustExec(`CREATE PROCEDURE cleanup_orders () AS 'DELETE FROM Orders WHERE Approved = FALSE'`)
	f := NewFunctions(db)
	f.XSQL().RegisterPage("admin", `
		<xsql:page>
			<xsql:dml>CALL cleanup_orders()</xsql:dml>
			<xsql:dml>CREATE TABLE AuditLog (msg VARCHAR)</xsql:dml>
		</xsql:page>`)
	callFn(t, f, "ora:processXSQL", xpath.String("admin"))
	if n := db.MustExec("SELECT COUNT(*) FROM Orders").Rows[0][0].I; n != 4 {
		t.Fatalf("procedure via XSQL: %d rows", n)
	}
	if !db.HasTable("AuditLog") {
		t.Fatal("DDL via XSQL failed")
	}
}

func TestXSQLErrors(t *testing.T) {
	db := ordersDB()
	f := NewFunctions(db)
	if _, err := f.CallFunction(instance(t, f), "ora:processXSQL", []xpath.Value{xpath.String("missing")}); err == nil {
		t.Fatal("expected missing page error")
	}
	if err := f.XSQL().RegisterPage("badparam", `<xsql:page><xsql:dml>DELETE FROM Orders WHERE ItemID = {@x}</xsql:dml></xsql:page>`); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CallFunction(instance(t, f), "ora:processXSQL", []xpath.Value{xpath.String("badparam")}); err == nil ||
		!strings.Contains(err.Error(), "badparam") || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("want an unbound parameter error naming the page, got %v", err)
	}
	if err := f.XSQL().RegisterPage("notxml", "<oops"); err == nil {
		t.Fatal("expected parse error")
	}
	if err := f.XSQL().RegisterPage("open", `<xsql:page><xsql:dml>DELETE FROM Orders WHERE ItemID = {@x</xsql:dml></xsql:page>`); err == nil ||
		!strings.Contains(err.Error(), "open") {
		t.Fatalf("want an unterminated parameter to fail registration naming the page, got %v", err)
	}
	if _, err := f.CallFunction(instance(t, f), "ora:processXSQL", []xpath.Value{xpath.String("open")}); err == nil {
		t.Fatal("a page that failed to register must not run")
	}
	if _, err := f.CallFunction(instance(t, f), "ora:processXSQL", []xpath.Value{
		xpath.String("confirmations"), xpath.String("odd")}); err == nil {
		t.Fatal("expected pairing error")
	}
}

// TestXSQLRepeatedParameterTakesItsLastValue: a page parameter named
// twice in the call binds the later value, as a map filled in argument
// order did.
func TestXSQLRepeatedParameterTakesItsLastValue(t *testing.T) {
	db := ordersDB()
	f := NewFunctions(db)
	if err := f.XSQL().RegisterPage("one", `<xsql:page><xsql:query>SELECT ItemID FROM Orders WHERE Quantity = {@q}</xsql:query></xsql:page>`); err != nil {
		t.Fatal(err)
	}
	v := callFn(t, f, "ora:processXSQL", xpath.String("one"),
		xpath.String("q"), xpath.String("-1"), xpath.String("q"), xpath.String("10"))
	rs := v.Nodes[0].FirstChildElement("result").FirstChildElement("RowSet")
	if got := rowset.Count(rs); got != 1 || rowset.Field(rowset.Row(rs, 0), "ItemID") != "bolt" {
		t.Fatalf("want the one row of quantity 10, got %s", v.Nodes[0])
	}
}

func TestUnknownFunctionAndNamespace(t *testing.T) {
	f := NewFunctions(ordersDB())
	if _, err := f.CallFunction(instance(t, f), "ora:no-such", nil); err == nil {
		t.Fatal("expected unknown function error")
	}
	if _, err := f.CallFunction(instance(t, f), "foo:query-database", nil); err == nil {
		t.Fatal("expected unknown namespace error")
	}
}

// TestFigure8Workflow reproduces the paper's Figure 8 sample workflow on
// the Oracle stack: Assign1 calls ora:query-database, the while activity
// plus Java-Snippet iterates the XML RowSet, invoke calls the supplier,
// and Assign2 calls ora:processXSQL to execute the INSERT.
func TestFigure8Workflow(t *testing.T) {
	db := ordersDB()
	funcs := NewFunctions(db)
	if err := funcs.XSQL().RegisterPage("insertConfirmation", `
		<xsql:page>
			<xsql:dml>INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation)
				VALUES ({@item}, {@qty}, {@conf})</xsql:dml>
		</xsql:page>`); err != nil {
		t.Fatal(err)
	}

	bus := wsbus.New()
	svc := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", svc.Operation())
	e := engine.New(bus)

	assign1 := engine.NewAssign("Assign1").Copy(
		`ora:query-database("SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID")`,
		"SV_ItemList")

	body := engine.NewSequence("loopBody",
		engine.NewAssign("extract").
			Copy("$CurrentItem/ItemID", "CurrentItemID").
			Copy("$CurrentItem/Quantity", "CurrentQuantity"),
		engine.NewInvoke("Invoke", "OrderFromSupplier").
			In("ItemID", "$CurrentItem/ItemID").
			In("Quantity", "$CurrentItem/Quantity").
			Out("OrderConfirmation", "OrderConfirmation"),
		engine.NewAssign("Assign2").Copy(
			`ora:processXSQL('insertConfirmation', 'item', $CurrentItemID, 'qty', $CurrentQuantity, 'conf', $OrderConfirmation)/rowsAffected`,
			"Status"),
	)

	p := NewProcess("Fig8", funcs).
		XMLVariable("SV_ItemList", "").
		XMLVariable("CurrentItem", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("Status", "").
		Variable("pos", "1").
		Body(engine.NewSequence("main",
			assign1,
			CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos", body),
		)).
		Build()

	d, err := e.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.MustVariable("Status").String() != "1" {
		t.Fatalf("Status: %q", in.MustVariable("Status").String())
	}

	r := db.MustExec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
	if len(r.Rows) != 3 {
		t.Fatalf("confirmations: %d", len(r.Rows))
	}
	wants := map[string]int64{"bolt": 15, "nut": 3, "screw": 2}
	for _, row := range r.Rows {
		item := row[0].S
		if row[1].I != wants[item] {
			t.Errorf("%s quantity: %d", item, row[1].I)
		}
		if row[2].S != fmt.Sprintf("CONFIRMED:%s:%d", item, wants[item]) {
			t.Errorf("%s confirmation: %q", item, row[2].S)
		}
	}
}

func TestBpelxTupleIUD(t *testing.T) {
	db := ordersDB()
	funcs := NewFunctions(db)
	e := engine.New(nil)
	p := NewProcess("tuples", funcs).
		XMLVariable("rs", `<RowSet>
			<Row num="1"><ItemID>bolt</ItemID><Quantity>1</Quantity></Row>
			<Row num="2"><ItemID>nut</ItemID><Quantity>2</Quantity></Row>
		</RowSet>`).
		XMLVariable("newRow", `<Row><ItemID>washer</ItemID><Quantity>9</Quantity></Row>`).
		Body(engine.NewSequence("main",
			// Update via copy.
			NewBpelxAssign("upd").Copy("'77'", "rs", "Row[1]/Quantity"),
			// Insert via bpelx:insertAfter.
			NewBpelxAssign("ins").InsertAfter("$newRow", "rs", "Row[1]"),
			// Delete via bpelx:remove.
			NewBpelxAssign("del").Remove("rs", "Row[ItemID = 'nut']"),
		)).
		Build()
	d, _ := e.Deploy(p)
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := in.MustVariable("rs").Node()
	rows := rowset.Rows(rs)
	if len(rows) != 2 {
		t.Fatalf("rows after IUD: %d", len(rows))
	}
	if rowset.Field(rows[0], "Quantity") != "77" {
		t.Fatalf("update: %s", rows[0])
	}
	if rowset.Field(rows[1], "ItemID") != "washer" {
		t.Fatalf("insert position: %s", rows[1])
	}
}

// TestBpelxCopyMatchesAssignCopy: bpelx copy and the standard assign copy
// are one operation, whatever the source: an element, a text node, a
// string or a number.
func TestBpelxCopyMatchesAssignCopy(t *testing.T) {
	const (
		src = `<Row><ItemID>b</ItemID><Quantity>5</Quantity></Row>`
		rs  = `<RowSet><Row><ItemID>a</ItemID><Quantity>1</Quantity></Row></RowSet>`
	)
	e := engine.New(nil)
	funcs := NewFunctions(ordersDB())
	run := func(body engine.Activity) string {
		t.Helper()
		d, err := e.Deploy(NewProcess("cp", funcs).XMLVariable("src", src).XMLVariable("rs", rs).Body(body).Build())
		if err != nil {
			t.Fatal(err)
		}
		in, err := d.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return in.MustVariable("rs").Node().String()
	}
	for _, from := range []string{"$src/Quantity", "'7'", "3 + 4"} {
		bpelx := run(NewBpelxAssign("cp").Copy(from, "rs", "Row[1]/Quantity"))
		bpel := run(engine.NewAssign("cp").CopyTo(from, "rs", "Row[1]/Quantity"))
		if bpelx != bpel {
			t.Errorf("from %s: bpelx copy wrote %s, assign copy %s", from, bpelx, bpel)
		}
	}

	// The target's old children are detached.
	target := xdm.MustParse(`<Quantity><old/></Quantity>`)
	old := target.Children[0]
	engine.ReplaceContent(target, xpath.NodeSet(xdm.MustParse(`<q><new/></q>`)))
	if old.Parent() != nil || target.String() != "<Quantity><new/></Quantity>" || target.Children[0].Parent() != target {
		t.Fatalf("replaced content %s, old child's parent %v", target, old.Parent())
	}
}

func TestBpelxAppendAndErrors(t *testing.T) {
	e := engine.New(nil)
	funcs := NewFunctions(ordersDB())
	p := NewProcess("append", funcs).
		XMLVariable("rs", `<Order><Items><Row><ItemID>a</ItemID></Row></Items></Order>`).
		XMLVariable("newRow", `<Row><ItemID>b</ItemID></Row>`).
		Body(NewBpelxAssign("app").Append("$newRow", "rs", "Items")).
		Build()
	d, _ := e.Deploy(p)
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rowset.Count(in.MustVariable("rs").Node().FirstChildElement("Items")) != 2 {
		t.Fatal("append failed")
	}

	bad := NewProcess("bad", funcs).
		XMLVariable("rs", `<RowSet/>`).
		Body(NewBpelxAssign("rm").Remove("rs", "Row[99]")).
		Build()
	d2, _ := e.Deploy(bad)
	if _, err := d2.Run(nil); err == nil {
		t.Fatal("expected remove-no-node error")
	}
}

func TestGetVariableData(t *testing.T) {
	db := ordersDB()
	funcs := NewFunctions(db)
	e := engine.New(nil)
	p := NewProcess("gvd", funcs).
		XMLVariable("rs", `<RowSet><Row><ItemID>bolt</ItemID></Row></RowSet>`).
		Variable("out", "").
		Body(engine.NewAssign("a").Copy(
			`bpel:getVariableData('rs', 'Row[1]/ItemID')`, "out")).
		Build()
	d, _ := e.Deploy(p)
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.MustVariable("out").String() != "bolt" {
		t.Fatalf("getVariableData: %q", in.MustVariable("out").String())
	}
}

func TestSynchronizationWorkaroundViaProcessXSQL(t *testing.T) {
	// The paper: for the Synchronization Pattern one manually adds
	// processXSQL calls that reflect local updates in external data.
	db := ordersDB()
	funcs := NewFunctions(db)
	funcs.XSQL().RegisterPage("pushQuantity", `
		<xsql:page>
			<xsql:dml>UPDATE Orders SET Quantity = {@qty} WHERE OrderID = {@id}</xsql:dml>
		</xsql:page>`)
	e := engine.New(nil)
	p := NewProcess("sync", funcs).
		XMLVariable("rs", "").
		Variable("st", "").
		Body(engine.NewSequence("main",
			engine.NewAssign("fetch").Copy(
				`ora:query-database("SELECT OrderID, Quantity FROM Orders WHERE OrderID = 1")`, "rs"),
			// Local update in the process space.
			NewBpelxAssign("local").Copy("'123'", "rs", "Row[1]/Quantity"),
			// Manual push-back.
			engine.NewAssign("push").Copy(
				`ora:processXSQL('pushQuantity', 'qty', $rs/Row[1]/Quantity, 'id', $rs/Row[1]/OrderID)/rowsAffected`,
				"st"),
		)).
		Build()
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if q := db.MustExec("SELECT Quantity FROM Orders WHERE OrderID = 1").Rows[0][0].I; q != 123 {
		t.Fatalf("synchronized quantity: %d", q)
	}
}

func TestStaticConnectionIsFixed(t *testing.T) {
	// Table I: Oracle's reference to the external data source is static —
	// the function library is bound to one database at construction.
	db1 := ordersDB()
	db2 := sqldb.Open("other")
	f := NewFunctions(db1)
	_ = db2
	v := callFn(t, f, "ora:query-database", xpath.String("SELECT COUNT(*) AS n FROM Orders"))
	if rowset.Field(rowset.Row(v.Nodes[0], 0), "n") != "6" {
		t.Fatal("query went to the wrong database")
	}
	if !strings.Contains(fmt.Sprintf("%T", f), "Functions") {
		t.Fatal("sanity")
	}
}

func TestFunctionErrorArities(t *testing.T) {
	f := NewFunctions(ordersDB())
	cases := [][]xpath.Value{
		{},
		{xpath.String("SELECT 1"), xpath.String("extra")},
	}
	for _, args := range cases {
		if _, err := f.CallFunction(instance(t, f), "ora:query-database", args); err == nil {
			t.Errorf("query-database with %d args must fail", len(args))
		}
		if _, err := f.CallFunction(instance(t, f), "ora:sequence-next-val", args); err == nil {
			t.Errorf("sequence-next-val with %d args must fail", len(args))
		}
	}
	// Bad SQL propagates.
	if _, err := f.CallFunction(instance(t, f), "ora:query-database", []xpath.Value{xpath.String("SELEC")}); err == nil {
		t.Error("bad SQL must fail")
	}
	// Missing sequence propagates.
	if _, err := f.CallFunction(instance(t, f), "ora:sequence-next-val", []xpath.Value{xpath.String("nope")}); err == nil {
		t.Error("missing sequence must fail")
	}
	// DML via query-database is rejected (it must be a query).
	if _, err := f.CallFunction(instance(t, f), "ora:query-database", []xpath.Value{xpath.String("DELETE FROM Orders")}); err == nil {
		t.Error("DML via query-database must fail")
	}
}

func TestEmptyRowSet(t *testing.T) {
	rs := EmptyRowSet()
	if rs.Name != "RowSet" || len(rs.Children) != 0 {
		t.Fatalf("EmptyRowSet: %s", rs)
	}
}
