package mswf

import (
	"strings"
	"testing"

	"wfsql/internal/dataset"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// TestBPELExportImportRoundTrip exports the markup-authored Figure 6
// workflow to BPEL, imports it back, and runs the imported tree — the
// paper's "import and export tools for BPEL" for WF.
func TestBPELExportImportRoundTrip(t *testing.T) {
	wf := MustLoadXOML(figure6XOML)
	bpel, err := ExportBPEL("Figure6", wf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<process", `name="Figure6"`, "<sequence", "<while",
		"urn:wfsql:rule", "HasMoreItems", "<invoke", `operation="OrderFromSupplier"`,
		"wf:sqlDatabase", "toPart", "fromPart", "wf:parameter",
	} {
		if !strings.Contains(bpel, want) {
			t.Errorf("exported BPEL missing %q:\n%s", want, bpel)
		}
	}

	imported, err := ImportBPEL(bpel)
	if err != nil {
		t.Fatal(err)
	}

	// The imported workflow must execute with the same effects.
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
	if _, err := rt.Run(imported, map[string]any{"Index": 0}); err != nil {
		t.Fatal(err)
	}
	if n := db.MustExec("SELECT COUNT(*) FROM OrderConfirmations").Rows[0][0].I; n != 3 {
		t.Fatalf("imported workflow confirmations: %d", n)
	}

	// Double round trip is stable.
	bpel2, err := ExportBPEL("Figure6", imported)
	if err != nil {
		t.Fatal(err)
	}
	if bpel != bpel2 {
		t.Fatalf("export not stable:\n--- first ---\n%s\n--- second ---\n%s", bpel, bpel2)
	}
}

func TestBPELExportRejectsInlineCode(t *testing.T) {
	inline := NewSequence("s", NewCode("c", func(*Context) error { return nil }))
	if _, err := ExportBPEL("p", inline); err == nil {
		t.Fatal("inline handler must not be exportable")
	}
	codeCond := NewWhile("w", func(*Context) (bool, error) { return false, nil },
		&CodeActivity{ActivityName: "t", HandlerName: "H"})
	if _, err := ExportBPEL("p", codeCond); err == nil {
		t.Fatal("code-only condition must not be exportable")
	}
}

// TestBPELImportPlainBPEL: BPEL produced by another tool imports when it
// keeps to the elements ExportBPEL writes; empty, if and exit, which once
// imported as an inline code activity, branches and a terminate, are
// refused.
func TestBPELImportPlainBPEL(t *testing.T) {
	plain := `
	<process name="other">
	  <sequence name="main">
	    <while name="loop">
	      <condition expressionLanguage="urn:wfsql:rule">IsLow</condition>
	      <invoke name="order" operation="Order">
	        <toPart part="x" fromVariable="x"/>
	        <fromPart part="x" toVariable="x"/>
	      </invoke>
	    </while>
	  </sequence>
	</process>`
	wf, err := ImportBPEL(plain)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.RegisterRule("IsLow", func(c *Context) (bool, error) {
		return len(c.GetString("x")) < 3, nil
	})
	rt.RegisterService("Order", func(req map[string]string) (map[string]string, error) {
		return map[string]string{"x": req["x"] + "1"}, nil
	})
	c, err := rt.Run(wf, map[string]any{"x": "0"})
	if err != nil || c.GetString("x") != "011" {
		t.Fatalf("imported loop: x = %q, %v", c.GetString("x"), err)
	}
	for _, elem := range []string{
		`<empty name="noop"/>`,
		`<if name="check"><condition>IsHigh</condition><empty/></if>`,
		`<exit name="stop" wf:reason="too high"/>`,
	} {
		doc := strings.Replace(plain, "<while", elem+"<while", 1)
		if _, err := ImportBPEL(doc); err == nil || !strings.Contains(err.Error(), "unsupported BPEL element") {
			t.Errorf("ImportBPEL with %s = %v, want it refused", elem, err)
		}
	}
}

func TestBPELImportErrors(t *testing.T) {
	bad := []string{
		"not xml",
		"<notprocess/>",
		"<process/>",
		"<process><sequence/><sequence/></process>",
		"<process><while name='w'><empty/></while></process>",
		"<process><unknownElement/></process>",
		"<process><invoke name='i'/></process>",
		"<process><extensionActivity/></process>",
		"<process><extensionActivity><wf:code/></extensionActivity></process>",
		"<process><extensionActivity><wf:sqlDatabase name='s'/></extensionActivity></process>",
		"<process><if name='i'><empty/></if></process>",
		"<process><sequence/></process>",
		"<process><extensionActivity><wf:code handler='H'/></extensionActivity></process>",
		"<process><extensionActivity><wf:sqlDatabase name='s' connectionString='c' statement='SELECT 1' resultTable='t'/></extensionActivity></process>",
	}
	for _, doc := range bad {
		if _, err := ImportBPEL(doc); err == nil {
			t.Errorf("ImportBPEL(%q): expected error", doc)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	db := ordersDB()
	rt := newRuntime(db)

	// Run the first half of a workflow, dehydrate, rehydrate, continue.
	fill := NewSQLDatabase("fill", conn,
		"SELECT OrderID, ItemID, Quantity FROM Orders ORDER BY OrderID").
		Into("cache").Keys("OrderID")
	c1, err := rt.Run(fill, map[string]any{"phase": "one", "count": int64(2), "ratio": 1.5, "flag": true})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the cache so change tracking must survive persistence.
	ds := c1.vars["cache"].(*dataset.DataSet)
	row, _ := ds.Table("Result").Find(sqldb.Int(1))
	row.Set("Quantity", sqldb.Int(42))
	victim, _ := ds.Table("Result").Find(sqldb.Int(2))
	victim.Delete()
	ds.Table("Result").AddRow(sqldb.Int(77), sqldb.Str("washer"), sqldb.Int(9))

	state := SaveState(c1)
	if !strings.Contains(state, "workflowState") || !strings.Contains(state, "dataSet") {
		t.Fatalf("state: %s", state)
	}

	c2, err := rt.LoadState(state)
	if err != nil {
		t.Fatal(err)
	}
	if c2.GetString("phase") != "one" {
		t.Fatalf("string var: %q", c2.GetString("phase"))
	}
	if n, _ := c2.GetInt("count"); n != 2 {
		t.Fatalf("int var: %d", n)
	}
	if v, _ := c2.Get("ratio"); v.(float64) != 1.5 {
		t.Fatalf("float var: %v", v)
	}
	if v, _ := c2.Get("flag"); v.(bool) != true {
		t.Fatalf("bool var: %v", v)
	}
	ds2 := c2.vars["cache"].(*dataset.DataSet)
	tab := ds2.Table("Result")
	if tab.Count() != 6 { // 6 live rows: 5 original (one deleted) + 1 added
		t.Fatalf("live rows after restore: %d", tab.Count())
	}
	added, modified, deleted := tab.Changes()
	if len(added) != 1 || len(modified) != 1 || len(deleted) != 1 {
		t.Fatalf("change tracking after restore: a=%d m=%d d=%d", len(added), len(modified), len(deleted))
	}
	r, _ := tab.Find(sqldb.Int(1))
	if r.MustGet("Quantity").I != 42 {
		t.Fatalf("modified value after restore: %v", r.MustGet("Quantity"))
	}
}

func TestLoadStateErrors(t *testing.T) {
	rt := NewRuntime()
	bad := []string{
		"nope",
		"<wrongRoot/>",
		`<workflowState><variable name="x" type="int">abc</variable></workflowState>`,
		`<workflowState><variable name="x" type="weird">1</variable></workflowState>`,
		`<workflowState><variable name="x" type="dataset"/></workflowState>`,
	}
	for _, s := range bad {
		if _, err := rt.LoadState(s); err == nil {
			t.Errorf("LoadState(%q): expected error", s)
		}
	}
}
