package mswf

import (
	"fmt"
	"strings"
	"testing"

	"wfsql/internal/dataset"
	"wfsql/internal/obsv"
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

const conn = "Provider=SqlServer;Data Source=orderdb"

func newRuntime(db *sqldb.DB) *Runtime {
	rt := NewRuntime()
	rt.RegisterDatabase("orderdb", SQLServer, db)
	return rt
}

func TestSequenceAndCode(t *testing.T) {
	rt := NewRuntime()
	var order []string
	mk := func(n string) Activity {
		return NewCode(n, func(c *Context) error {
			order = append(order, n)
			return nil
		})
	}
	if _, err := rt.Run(NewSequence("main", mk("a"), mk("b")), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a,b" {
		t.Fatalf("order: %v", order)
	}
}

func TestSQLDatabaseActivityQueryMaterializes(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	act := NewSQLDatabase("SQLDatabase1", conn,
		`SELECT ItemID, SUM(Quantity) AS ItemQuantity FROM Orders
		 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).
		Into("SV_ItemList").Keys("ItemID")
	c, err := rt.Run(act, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get("SV_ItemList")
	if !ok {
		t.Fatal("result host variable missing")
	}
	ds := v.(*dataset.DataSet)
	tab := ds.Table("Result")
	if tab.Count() != 3 {
		t.Fatalf("materialized rows: %d", tab.Count())
	}
	r, _ := tab.Find(sqldb.Str("bolt"))
	if r.MustGet("ItemQuantity").I != 15 {
		t.Fatalf("bolt quantity: %v", r.MustGet("ItemQuantity"))
	}
}

func TestSQLDatabaseActivityDMLAndParameters(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	act := NewSQLDatabase("del", conn,
		"DELETE FROM Orders WHERE ItemID = @item AND Quantity >= @q").
		Param("@item", "item").Param("@q", "minQty")
	act.RowsAffectedVar = "n"
	c, err := rt.Run(act, map[string]any{"item": "bolt", "minQty": 5})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.GetInt("n"); n != 2 {
		t.Fatalf("rows affected: %d", n)
	}
}

// TestSQLParametersAreTokens: @name placeholders are what the SQL lexer
// finds, not substrings of the statement text. A parameter whose name is a
// prefix of another's binds only its own placeholder, and an @ inside a
// string literal is text.
func TestSQLParametersAreTokens(t *testing.T) {
	cases := []struct {
		stmt     string
		params   [][2]string
		wantConf string
	}{
		{
			stmt:     "INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES (@c, @q, @conf)",
			params:   [][2]string{{"@c", "item"}, {"@q", "qty"}, {"@conf", "conf"}},
			wantConf: "C-1",
		},
		{
			stmt:     "INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES (@item, @q, 'mail to sales@item.example')",
			params:   [][2]string{{"@item", "item"}, {"@q", "qty"}},
			wantConf: "mail to sales@item.example",
		},
	}
	for _, tc := range cases {
		db := ordersDB()
		rt := newRuntime(db)
		act := NewSQLDatabase("confirm", conn, tc.stmt)
		for _, p := range tc.params {
			act.Param(p[0], p[1])
		}
		if _, err := rt.Run(act, map[string]any{"item": "bolt", "qty": 15, "conf": "C-1"}); err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		res := db.MustExec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations")
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows", tc.stmt, len(res.Rows))
		}
		if r := res.Rows[0]; r[0].S != "bolt" || r[1].I != 15 || r[2].S != tc.wantConf {
			t.Fatalf("%s: stored %v, want bolt, 15, %q", tc.stmt, r, tc.wantConf)
		}
	}
}

// TestSQLParameterMismatchFailsAtDeploy: a placeholder without a
// parameter, or a parameter without a placeholder, fails the activity's
// first execution and names it.
func TestSQLParameterMismatchFailsAtDeploy(t *testing.T) {
	for _, tc := range []struct{ stmt, param, want string }{
		{"DELETE FROM Orders WHERE ItemID = @item AND Quantity > @q", "@item", "placeholder @q has no parameter"},
		{"DELETE FROM Orders WHERE ItemID = 'sales@item'", "@item", "parameter @item not present in statement"},
	} {
		_, err := newRuntime(ordersDB()).Run(NewSQLDatabase("del", conn, tc.stmt).Param(tc.param, "item"), map[string]any{"item": "bolt"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.stmt, err, tc.want)
		}
	}
}

func TestSQLDatabaseActivityDDLAndStoredProcedure(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	// Data Setup Pattern: DDL from the activity.
	if _, err := rt.Run(NewSQLDatabase("ddl", conn,
		"CREATE TABLE Audit (msg VARCHAR)"), nil); err != nil {
		t.Fatal(err)
	}
	if !db.HasTable("Audit") {
		t.Fatal("DDL did not run")
	}
	// Stored Procedure Pattern.
	db.MustExec(`CREATE PROCEDURE totals () AS
		'SELECT ItemID, SUM(Quantity) AS Total FROM Orders GROUP BY ItemID'`)
	c, err := rt.Run(NewSQLDatabase("call", conn, "CALL totals()").Into("out"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.vars["out"].(*dataset.DataSet)
	if ds.Table("Result").Count() != 3 {
		t.Fatalf("procedure result rows: %d", ds.Table("Result").Count())
	}
}

func TestEventHandlers(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	act := NewSQLDatabase("withHandlers", conn,
		"DELETE FROM Orders WHERE ItemID = @item").
		Param("@item", "item")
	var sequence []string
	act.BeforeExecute = func(c *Context) error {
		// Initialize the parameter value before the statement runs.
		c.Set("item", "nut")
		sequence = append(sequence, "before")
		return nil
	}
	act.AfterExecute = func(c *Context) error {
		sequence = append(sequence, "after")
		return nil
	}
	if _, err := rt.Run(act, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Join(sequence, ",") != "before,after" {
		t.Fatalf("handler order: %v", sequence)
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders WHERE ItemID = 'nut'").Rows[0][0].I; n != 0 {
		t.Fatal("before-handler parameter did not apply")
	}
}

func TestProviderRestriction(t *testing.T) {
	db := sqldb.Open("pg")
	db.MustExec("CREATE TABLE t (x INTEGER)")
	rt := NewRuntime()
	rt.RegisterDatabase("pg", Provider("Postgres"), db)
	_, err := rt.Run(NewSQLDatabase("q", "Provider=Postgres;Data Source=pg", "SELECT x FROM t").Into("r"), nil)
	if err == nil || !strings.Contains(err.Error(), "SqlServer and Oracle") {
		t.Fatalf("expected provider restriction, got %v", err)
	}
	// Mismatched provider in the connection string is also rejected.
	rt2 := newRuntime(ordersDB())
	_, err = rt2.Run(NewSQLDatabase("q", "Provider=Oracle;Data Source=orderdb", "SELECT 1").Into("r"), nil)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("expected provider mismatch, got %v", err)
	}
}

func TestUnknownDataSource(t *testing.T) {
	rt := NewRuntime()
	if _, err := rt.Run(NewSQLDatabase("q", "Data Source=nope", "SELECT 1").Into("r"), nil); err == nil {
		t.Fatal("expected unknown data source error")
	}
	if _, err := rt.Run(NewSQLDatabase("q", "Provider=SqlServer", "SELECT 1").Into("r"), nil); err == nil {
		t.Fatal("expected missing data source error")
	}
}

// figure6Workflow builds the paper's Figure 6 workflow in the code-only
// authoring mode.
func figure6Workflow(svc *wsbus.OrderFromSupplierService) Activity {
	sqlDatabase1 := NewSQLDatabase("SQLDatabase1", conn,
		`SELECT ItemID, SUM(Quantity) AS ItemQuantity FROM Orders
		 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).
		Into("SV_ItemList").Keys("ItemID")

	bindNext := NewCode("bindNext", func(c *Context) error {
		ds := c.vars["SV_ItemList"].(*dataset.DataSet)
		i, _ := c.GetInt("Index")
		row, err := ds.Table("Result").Row(int(i))
		if err != nil {
			return err
		}
		// CurrentItem["ItemID"], CurrentItem["ItemQuantity"] in ADO.NET terms.
		c.Set("CurrentItemID", row.MustGet("ItemID").S)
		c.Set("CurrentItemQuantity", row.MustGet("ItemQuantity").I)
		c.Set("Index", i+1)
		return nil
	})

	invoke := &InvokeWebServiceActivity{
		ActivityName: "invoke",
		Service:      func(req map[string]string) (map[string]string, error) { return svc.Handle(req) },
		Inputs:       map[string]string{"ItemID": "CurrentItemID", "Quantity": "CurrentItemQuantity"},
		Outputs:      map[string]string{"OrderConfirmation": "OrderConfirmation"},
	}

	sqlDatabase2 := NewSQLDatabase("SQLDatabase2", conn,
		`INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation)
		 VALUES (@item, @qty, @conf)`).
		Param("@item", "CurrentItemID").
		Param("@qty", "CurrentItemQuantity").
		Param("@conf", "OrderConfirmation")

	hasMore := func(c *Context) (bool, error) {
		ds, ok := c.Get("SV_ItemList")
		if !ok {
			return false, nil
		}
		i, _ := c.GetInt("Index")
		return int(i) < ds.(*dataset.DataSet).Table("Result").Count(), nil
	}

	return NewSequence("main",
		sqlDatabase1,
		NewWhile("while", hasMore,
			NewSequence("body", bindNext, invoke, sqlDatabase2)),
	)
}

// TestFigure6Workflow reproduces the paper's Figure 6 sample workflow on
// the WF stack and checks behavioural equivalence with the BIS version.
func TestFigure6Workflow(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	svc := wsbus.NewOrderFromSupplier(0)
	if _, err := rt.Run(figure6Workflow(svc), map[string]any{"Index": 0}); err != nil {
		t.Fatal(err)
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

func TestTrackingService(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	col := obsv.NewCollector()
	o := obsv.New()
	o.Tracer.AddSink(col)
	rt.SetObservability(o)
	svc := wsbus.NewOrderFromSupplier(0)
	if _, err := rt.Run(figure6Workflow(svc), map[string]any{"Index": 0}); err != nil {
		t.Fatal(err)
	}
	var closed int
	for _, s := range col.ByName("SQLDatabase2") {
		if s.Kind == obsv.KindActivity && s.Outcome == obsv.OutcomeOK {
			closed++
		}
	}
	if closed != 3 {
		t.Fatalf("SQLDatabase2 closed activity spans: %d", closed)
	}
}

func TestCodeActivityADOWorkarounds(t *testing.T) {
	// The paper: in WF, Random Set Access, Tuple IUD and Synchronization
	// are only possible through code activities using the ADO.NET API.
	db := ordersDB()
	rt := newRuntime(db)
	wf := NewSequence("main",
		NewSQLDatabase("fill", conn,
			"SELECT OrderID, ItemID, Quantity, Approved FROM Orders ORDER BY OrderID").
			Into("cache").Keys("OrderID"),
		NewCode("mutate", func(c *Context) error {
			tab := c.vars["cache"].(*dataset.DataSet).Table("Result")
			// Random access by key.
			row, err := tab.Find(sqldb.Int(4))
			if err != nil || row == nil {
				return fmt.Errorf("find: %v %v", row, err)
			}
			// Tuple update, insert, delete on the cache.
			row.Set("Quantity", sqldb.Int(42))
			tab.AddRow(sqldb.Int(99), sqldb.Str("washer"), sqldb.Int(1), sqldb.Bool(true))
			victim, _ := tab.Find(sqldb.Int(6))
			victim.Delete()
			return nil
		}),
		NewCode("synchronize", func(c *Context) error {
			ds := c.vars["cache"].(*dataset.DataSet)
			adapter, err := NewDataAdapter(c, conn,
				"SELECT OrderID, ItemID, Quantity, Approved FROM Orders", "Orders", "OrderID")
			if err != nil {
				return err
			}
			n, err := adapter.Update(ds, "Result")
			if err != nil {
				return err
			}
			c.Set("synced", int64(n))
			return nil
		}),
	)
	c, err := rt.Run(wf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.GetInt("synced"); n != 3 {
		t.Fatalf("synced rows: %d", n)
	}
	if q := db.MustExec("SELECT Quantity FROM Orders WHERE OrderID = 4").Rows[0][0].I; q != 42 {
		t.Fatalf("update not synchronized: %d", q)
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders WHERE OrderID = 6").Rows[0][0].I; n != 0 {
		t.Fatal("delete not synchronized")
	}
	if n := db.MustExec("SELECT COUNT(*) FROM Orders WHERE OrderID = 99").Rows[0][0].I; n != 1 {
		t.Fatal("insert not synchronized")
	}
}

// refused checks that LoadXOML refuses markup and ImportBPEL refuses a
// process holding bpel, each naming the element it does not know.
func refused(t *testing.T, markup, elem, bpel string) {
	t.Helper()
	if _, err := LoadXOML(markup); err == nil || !strings.Contains(err.Error(), "unknown activity element "+elem) {
		t.Errorf("LoadXOML(%q) = %v, want it refused", markup, err)
	}
	doc := `<process name="p"><sequence name="main">` + bpel + `</sequence></process>`
	if _, err := ImportBPEL(doc); err == nil || !strings.Contains(err.Error(), "unsupported BPEL element") {
		t.Errorf("ImportBPEL(%q) = %v, want it refused", doc, err)
	}
}

// TestIfElse: no figure, example or testdata branches, so IfElseActivity
// is gone; its markup and BPEL's if are refused.
func TestIfElse(t *testing.T) {
	refused(t, `<IfElseActivity x:Name="if">
	  <IfElseBranch Condition="rule:IsA"><CodeActivity x:Name="then" Handler="A"/></IfElseBranch>
	  <IfElseBranch><CodeActivity x:Name="else" Handler="B"/></IfElseBranch>
	</IfElseActivity>`, "IfElseActivity", `<if name="check">
	  <condition expressionLanguage="urn:wfsql:rule">IsA</condition>
	  <extensionActivity><wf:code name="then" handler="A"/></extensionActivity>
	  <elseif><condition>IsB</condition><extensionActivity><wf:code name="b" handler="B"/></extensionActivity></elseif>
	  <else><extensionActivity><wf:code name="else" handler="C"/></extensionActivity></else>
	</if>`)
}

// TestParallel: no figure, example or testdata forks an instance, so
// ParallelActivity is gone (an instance runs on one goroutine); its
// markup and BPEL's flow are refused.
func TestParallel(t *testing.T) {
	refused(t, `<ParallelActivity x:Name="par">
	  <CodeActivity x:Name="a" Handler="A"/>
	  <CodeActivity x:Name="b" Handler="B"/>
	</ParallelActivity>`, "ParallelActivity", `<flow name="par">
	  <extensionActivity><wf:code name="a" handler="A"/></extensionActivity>
	  <extensionActivity><wf:code name="b" handler="B"/></extensionActivity>
	</flow>`)
}

// TestTerminate: TerminateActivity had no issuer and is gone; its markup
// and BPEL's exit are refused.
func TestTerminate(t *testing.T) {
	refused(t, `<TerminateActivity x:Name="stop" Reason="bad input"/>`, "TerminateActivity",
		`<exit name="stop" wf:reason="bad input"/>`)
}

const figure6XOML = `
<SequenceActivity x:Name="main">
  <SQLDatabaseActivity x:Name="SQLDatabase1"
      ConnectionString="Provider=SqlServer;Data Source=orderdb"
      Statement="SELECT ItemID, SUM(Quantity) AS ItemQuantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID"
      ResultSet="SV_ItemList" Keys="ItemID"/>
  <WhileActivity x:Name="while" Condition="rule:HasMoreItems">
    <SequenceActivity x:Name="body">
      <CodeActivity x:Name="bindNext" Handler="BindNext"/>
      <InvokeWebServiceActivity x:Name="invoke" Service="OrderFromSupplier">
        <Input Part="ItemID" Variable="CurrentItemID"/>
        <Input Part="Quantity" Variable="CurrentItemQuantity"/>
        <Output Part="OrderConfirmation" Variable="OrderConfirmation"/>
      </InvokeWebServiceActivity>
      <SQLDatabaseActivity x:Name="SQLDatabase2"
          ConnectionString="Provider=SqlServer;Data Source=orderdb"
          Statement="INSERT INTO OrderConfirmations (ItemID, Quantity, Confirmation) VALUES (@item, @qty, @conf)">
        <Parameter Name="@item" Variable="CurrentItemID"/>
        <Parameter Name="@qty" Variable="CurrentItemQuantity"/>
        <Parameter Name="@conf" Variable="OrderConfirmation"/>
      </SQLDatabaseActivity>
    </SequenceActivity>
  </WhileActivity>
</SequenceActivity>`

// TestFigure6XOML runs the same workflow loaded from markup
// (code-separation authoring: structure in XOML, handlers in code).
func TestFigure6XOML(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)
	svc := wsbus.NewOrderFromSupplier(0)
	rt.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) {
		return svc.Handle(req)
	})
	rt.RegisterHandler("BindNext", func(c *Context) error {
		ds := c.vars["SV_ItemList"].(*dataset.DataSet)
		i, _ := c.GetInt("Index")
		row, err := ds.Table("Result").Row(int(i))
		if err != nil {
			return err
		}
		c.Set("CurrentItemID", row.MustGet("ItemID").S)
		c.Set("CurrentItemQuantity", row.MustGet("ItemQuantity").I)
		c.Set("Index", i+1)
		return nil
	})
	rt.RegisterRule("HasMoreItems", func(c *Context) (bool, error) {
		ds, ok := c.Get("SV_ItemList")
		if !ok {
			return false, nil
		}
		i, _ := c.GetInt("Index")
		return int(i) < ds.(*dataset.DataSet).Table("Result").Count(), nil
	})

	wf, err := LoadXOML(figure6XOML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(wf, map[string]any{"Index": 0}); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT COUNT(*) FROM OrderConfirmations")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("confirmations via XOML: %v", r.Rows[0][0])
	}
}

func TestXOMLErrors(t *testing.T) {
	bad := []string{
		`<UnknownActivity/>`,
		`<CodeActivity x:Name="c"/>`,
		`<WhileActivity x:Name="w" Condition="rule:R"/>`,
		`<WhileActivity x:Name="w" Condition="notrule"><CodeActivity Handler="h"/></WhileActivity>`,
		`<SQLDatabaseActivity x:Name="s"/>`,
		`<IfElseActivity x:Name="i"/>`,
		`<InvokeWebServiceActivity x:Name="v"/>`,
		`not xml at all`,
		`<CodeActivity Handler="h"/>`,
		`<SQLDatabaseActivity x:Name="s" ConnectionString="Data Source=orderdb" Statement="SELECT 1" ResultSet="r" ResultTable="t"/>`,
		`<SequenceActivity x:Name="m"><SQLDatabaseActivity x:Name="s" ConnectionString="Data Source=orderdb" Statement="SELECT 1" ResultSett="r"/></SequenceActivity>`,
		`<WhileActivity x:Name="w" Condition="rule:R"><CodeActivity x:Name="a" Handler="h"/><CodeActivity x:Name="b" Handler="h"/></WhileActivity>`,
	}
	for _, m := range bad {
		if _, err := LoadXOML(m); err == nil {
			t.Errorf("LoadXOML(%q): expected error", m)
		}
	}
}

func TestXOMLMissingHandlerFailsAtRuntime(t *testing.T) {
	rt := NewRuntime()
	wf := MustLoadXOML(`<CodeActivity x:Name="c" Handler="Nope"/>`)
	if _, err := rt.Run(wf, nil); err == nil {
		t.Fatal("expected missing handler error")
	}
}

func TestToSQLValueKinds(t *testing.T) {
	cases := []struct {
		in   any
		kind sqldb.Kind
	}{
		{nil, sqldb.KindNull},
		{sqldb.Int(1), sqldb.KindInt},
		{3, sqldb.KindInt},
		{int64(4), sqldb.KindInt},
		{2.5, sqldb.KindFloat},
		{true, sqldb.KindBool},
		{"s", sqldb.KindString},
		{struct{ X int }{1}, sqldb.KindString}, // fallback formatting
	}
	for _, c := range cases {
		if got := toSQLValue(c.in).K; got != c.kind {
			t.Errorf("toSQLValue(%v) kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestGetIntForms(t *testing.T) {
	c := &Context{Runtime: NewRuntime(), vars: map[string]any{
		"i": 7, "i64": int64(8), "sql": sqldb.Int(9), "str": "10", "bad": "xyz",
	}}
	for name, want := range map[string]int64{"i": 7, "i64": 8, "sql": 9, "str": 10} {
		if got, err := c.GetInt(name); err != nil || got != want {
			t.Errorf("GetInt(%s) = %d, %v", name, got, err)
		}
	}
	if _, err := c.GetInt("bad"); err == nil {
		t.Error("GetInt on non-numeric string must error")
	}
	if _, err := c.GetInt("missing"); err == nil {
		t.Error("GetInt on missing var must error")
	}
}

func TestPersistSQLValueKinds(t *testing.T) {
	rt := NewRuntime()
	c := &Context{Runtime: rt, vars: map[string]any{
		"n":  sqldb.Null(),
		"i":  sqldb.Int(4),
		"f":  sqldb.Float(2.5),
		"b":  sqldb.Bool(true),
		"s":  sqldb.Str("x"),
		"fl": 1.25,
	}}
	state := SaveState(c)
	c2, err := rt.LoadState(state)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Get("i"); v.(sqldb.Value).I != 4 {
		t.Fatalf("int sql value: %v", v)
	}
	if v, _ := c2.Get("f"); v.(sqldb.Value).F() != 2.5 {
		t.Fatalf("float sql value: %v", v)
	}
	if v, _ := c2.Get("b"); !v.(sqldb.Value).B() {
		t.Fatalf("bool sql value: %v", v)
	}
	if v, _ := c2.Get("n"); !v.(sqldb.Value).IsNull() {
		t.Fatalf("null sql value: %v", v)
	}
	if v, _ := c2.Get("fl"); v.(float64) != 1.25 {
		t.Fatalf("float var: %v", v)
	}
}

// TestExportBPELTerminateAndParallel: the document the exporter wrote for
// a ParallelActivity holding a TerminateActivity — flow, and exit with
// wf:reason — is refused on import, as both activities are gone.
func TestExportBPELTerminateAndParallel(t *testing.T) {
	doc := `<process name="p" xmlns="http://docs.oasis-open.org/wsbpel/2.0/process/executable">
  <flow name="par">
    <exit name="stop" wf:reason="because"/>
    <extensionActivity>
      <wf:code name="c" handler="H"/>
    </extensionActivity>
  </flow>
</process>`
	if _, err := ImportBPEL(doc); err == nil || !strings.Contains(err.Error(), "unsupported BPEL element flow") {
		t.Fatalf("ImportBPEL = %v, want flow refused", err)
	}
	if _, err := ImportBPEL(strings.NewReplacer("<flow", "<sequence", "</flow", "</sequence").Replace(doc)); err == nil ||
		!strings.Contains(err.Error(), "unsupported BPEL element exit") {
		t.Fatalf("ImportBPEL = %v, want exit refused", err)
	}
}

// TestGetStringMatchesSprint: GetString formats the common host variable
// kinds directly and everything else with fmt.Sprint; every kind reads as
// fmt.Sprint reads it.
func TestGetStringMatchesSprint(t *testing.T) {
	vals := []any{
		"", "bolt", 0, -7, 1 << 40, int64(0), int64(-1 << 62),
		sqldb.Null(), sqldb.Int(-3), sqldb.Float(1.5), sqldb.Float(1e21), sqldb.Str("nut"), sqldb.Bool(true), sqldb.Bool(false),
		1.25, true, int32(9), uint(4), []string{"a", "b"}, struct{ A int }{2},
	}
	c := &Context{vars: map[string]any{}}
	for i, v := range vals {
		name := fmt.Sprint("v", i)
		c.Set(name, v)
		if got, want := c.GetString(name), fmt.Sprint(v); got != want {
			t.Errorf("GetString(%T %v) = %q, want %q", v, v, got, want)
		}
	}
	if got := c.GetString("absent"); got != "" {
		t.Errorf("absent host variable: %q", got)
	}
}
