package bpelxml

import (
	"strings"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/orasoa"
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

// declarativeFigure4 builds a fully declarative (snippet-free) variant of
// the Figure 4 process: the cursor is realized with assign activities and
// positional XPath predicates, so the whole model round-trips through
// BPEL XML.
func declarativeFigure4() *bis.ProcessBuilder {
	body := engine.NewSequence("main",
		bis.NewSQL("SQL1", "DS",
			"SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders# WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID").
			Into("SR_ItemList"),
		bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
		engine.NewWhile("loop", engine.Cond("$pos <= count($SV_ItemList/Row)"),
			engine.NewSequence("loopBody",
				engine.NewAssign("extract").
					Copy("$SV_ItemList/Row[position() = $pos]/ItemID", "CurrentItemID").
					Copy("$SV_ItemList/Row[position() = $pos]/Quantity", "CurrentQuantity"),
				engine.NewInvoke("invoke", "OrderFromSupplier").
					In("ItemID", "$CurrentItemID").
					In("Quantity", "$CurrentQuantity").
					Out("OrderConfirmation", "OrderConfirmation"),
				bis.NewSQL("SQL2", "DS",
					"INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)"),
				engine.NewAssign("advance").Copy("$pos + 1", "pos"),
			)),
	)
	return bis.NewProcess("Fig4Declarative").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		ResultSetReference("SR_ItemList").
		SetRefLifecycle("SR_ItemList", "", "DROP TABLE IF EXISTS {TABLE}").
		Preparation("DS", "CREATE TABLE RunLog (msg VARCHAR)").
		Cleanup("DS", "INSERT INTO RunLog VALUES ('done')").
		XMLVariable("SV_ItemList", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("pos", "1").
		Body(body)
}

// TestBISDocumentRoundTrip serializes the WID artifact, reloads it, runs
// the reloaded process, and checks the external effects — the full
// design-tool → BPEL → engine pipeline of Figure 3.
func TestBISDocumentRoundTrip(t *testing.T) {
	doc, err := MarshalBISProcess(declarativeFigure4())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wid:artifacts", "wid:dataSourceVariable", "wid:setReference",
		`kind="result"`, `kind="input"`, "wid:sql", "wid:retrieveSet",
		"<while", "<assign", "<invoke", "wid:preparation", "wid:cleanup",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}

	b2, err := UnmarshalBISProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}

	db := ordersDB()
	bus := wsbus.New()
	svc := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", svc.Handle)
	e := engine.New(bus)
	e.RegisterDataSource("orderdb", db)

	d, err := e.Deploy(b2.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	r := db.MustExec("SELECT ItemID, Quantity FROM OrderConfirmations ORDER BY ItemID")
	if len(r.Rows) != 3 || r.Rows[0][1].I != 15 {
		t.Fatalf("reloaded process effects: %v", r.Rows)
	}
	// Lifecycle artifacts survived the round trip.
	if db.MustExec("SELECT COUNT(*) FROM RunLog").Rows[0][0].I != 1 {
		t.Fatal("cleanup statement lost in round trip")
	}

	// Marshalling is stable.
	doc2, err := MarshalBISProcess(b2)
	if err != nil {
		t.Fatal(err)
	}
	if doc != doc2 {
		t.Fatal("marshalling not stable across a round trip")
	}
}

// TestPlainProcessRoundTrip: the standard BPEL activities — sequence,
// assign with a whole-variable copy and a to-query, a scalar variable's
// initial value — survive a round trip and run.
func TestPlainProcessRoundTrip(t *testing.T) {
	b := bis.NewProcess("plain").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_R").
		XMLVariable("SV", "").
		Variable("x", "5").
		Variable("out", "").
		Body(engine.NewSequence("main",
			bis.NewSQL("q", "DS", "SELECT ItemID, Quantity FROM #SR_Orders# ORDER BY OrderID").Into("SR_R"),
			bis.NewRetrieveSet("r", "DS", "SR_R", "SV"),
			engine.NewAssign("set").CopyTo("$x + 37", "SV", "Row[1]/Quantity"),
			engine.NewAssign("get").Copy("$SV/Row[1]/Quantity", "out"),
		))
	doc, err := MarshalBISProcess(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, `query="Row[1]/Quantity"`) || !strings.Contains(doc, `init="5"`) {
		t.Fatalf("to-query or init missing:\n%s", doc)
	}
	b2, err := UnmarshalBISProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(nil)
	e.RegisterDataSource("orderdb", ordersDB())
	d, err := e.Deploy(b2.Build())
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.MustVariable("out").String(); got != "42" {
		t.Fatalf("out: %q", got)
	}
}

func TestSnippetRoundTripNeedsResolver(t *testing.T) {
	b := bis.NewProcess("s").Body(engine.NewSnippet("mySnippet", func(ctx *engine.Ctx) error { return nil }))
	doc, err := MarshalBISProcess(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "wid:javaSnippet") {
		t.Fatalf("snippet element missing: %s", doc)
	}
	if _, err := UnmarshalBISProcess(doc, nil); err == nil {
		t.Fatal("expected missing-resolver error")
	}
	ran := false
	b2, err := UnmarshalBISProcess(doc, &Resolver{Snippets: map[string]func(ctx *engine.Ctx) error{
		"mySnippet": func(ctx *engine.Ctx) error { ran = true; return nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := engine.New(nil).Deploy(b2.Build())
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("resolved snippet did not run")
	}
}

// TestBpelxAssignRoundTrip: no document form holds Oracle's bpelx assign
// (Oracle processes are built in code), so marshalling refuses it, and
// the bpelx operations are refused on load; so is every other model
// without an element: an empty activity, a short-running mode, an XML
// variable's initial document.
func TestBpelxAssignRoundTrip(t *testing.T) {
	for _, b := range []*bis.ProcessBuilder{
		bis.NewProcess("ora").Body(orasoa.NewBpelxAssign("ops").Append("$newRow", "rs", "Row[2]")),
		bis.NewProcess("empty").Body(&engine.Empty{ActivityName: "e"}),
		bis.NewProcess("short").Mode(engine.ShortRunning).Body(engine.NewAssign("a").Copy("1", "x")).Variable("x", ""),
		bis.NewProcess("init").XMLVariable("doc", "<d/>").Body(engine.NewAssign("a").Copy("1", "x")).Variable("x", ""),
	} {
		if doc, err := MarshalBISProcess(b); err == nil {
			t.Errorf("%s marshalled:\n%s", b.ProcessName(), doc)
		}
	}
	refused(t, "bpelx:copy", `<assign name="a"><bpelx:copy><from>1</from><to variable="x"/></bpelx:copy></assign>`)
	refused(t, "bpelx:insertAfter", `<assign name="a"><bpelx:insertAfter><from>$r</from><to variable="rs" query="Row[1]"/></bpelx:insertAfter></assign>`)
	refused(t, "bpelx:append", `<assign name="a"><bpelx:append><from>$r</from><to variable="rs" query="Row[1]"/></bpelx:append></assign>`)
	refused(t, "bpelx:remove", `<assign name="a"><bpelx:remove><to variable="rs" query="Row[1]"/></bpelx:remove></assign>`)
}

func TestAtomicSequenceRoundTrip(t *testing.T) {
	b := bis.NewProcess("atomic").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		Body(bis.NewAtomicSequence("seq",
			bis.NewSQL("u1", "DS", "UPDATE #SR_Orders# SET Quantity = Quantity + 1"),
			bis.NewSQL("bad", "DS", "INSERT INTO Missing VALUES (1)"),
		))
	doc, err := MarshalBISProcess(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "wid:atomicSQLSequence") {
		t.Fatalf("atomic sequence missing:\n%s", doc)
	}
	b2, err := UnmarshalBISProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := ordersDB()
	e := engine.New(nil)
	e.RegisterDataSource("orderdb", db)
	d, _ := e.Deploy(b2.Build())
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected fault")
	}
	// Atomicity survived serialization.
	if got := db.MustExec("SELECT SUM(Quantity) FROM Orders").Rows[0][0].I; got != 36 {
		t.Fatalf("atomic rollback after round trip: sum=%d", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"nope",
		"<notprocess/>",
		"<process name='p'/>",
		"<process name='p' wid:executionMode='microflow'><sequence name='s'/></process>",
		"<process name='p'><variables><variable name='d' type='xml'><from><d/></from></variable></variables><sequence name='s'/></process>",
		"<process name='p'><sequence name='a'/><sequence name='b'/></process>",
		"<process name='p'><while name='w'><sequence name='s'/></while></process>",
		"<process name='p'><while name='w'><condition>1</condition><sequence name='a'/><sequence name='b'/></while></process>",
		"<process name='p'><invoke name='i' operation='o'><correlations/></invoke></process>",
		"<process name='p'><unknown/></process>",
		"<process name='p'><extensionActivity/></process>",
		"<process name='p'><extensionActivity><wid:unknown/></extensionActivity></process>",
		"<process name='p'><wid:artifacts><wid:unknown/></wid:artifacts><sequence name='s'/></process>",
	}
	for _, doc := range bad {
		if _, err := UnmarshalBISProcess(doc, nil); err == nil {
			t.Errorf("UnmarshalBISProcess(%q): expected error", doc)
		}
	}
	refused(t, "empty", `<empty name="e"/>`)
	refused(t, "throw", `<throw name="t" faultName="f"/>`)
	refused(t, "scope", `<scope name="s"><wid:finally><sequence name="f"/></wid:finally><sequence name="b"/></scope>`)
}

// refused checks that a document whose body is body does not load, and
// that the error names elem: a BPEL document comes from outside the
// program, so an element no process issues is an error, not ignored.
func refused(t *testing.T, elem, body string) {
	t.Helper()
	doc := `<process name="p"><variables/>` + body + `</process>`
	_, err := UnmarshalBISProcess(doc, nil)
	if err == nil || !strings.Contains(err.Error(), elem) {
		t.Errorf("%s: loading %s: %v, want an error naming it", elem, body, err)
	}
}

func TestReceiveReplyRoundTrip(t *testing.T) {
	refused(t, "receive", `<receive name="in"><fromPart part="ItemID" toVariable="item"/></receive>`)
	refused(t, "reply", `<reply name="out"><toPart part="Echo" expression="$item"/></reply>`)
}

// TestMisspeltAttributeIsRefused: an attribute the reader does not read
// is an error, not dropped — a misspelt resultSetReference would load a
// SQL activity whose result is lost.
func TestMisspeltAttributeIsRefused(t *testing.T) {
	for _, body := range []string{
		`<extensionActivity><wid:sql name="q" dataSource="DS" resultSetRef="SR">SELECT * FROM Orders</wid:sql></extensionActivity>`,
		`<sequence name="s" mode="x"/>`,
		`<assign name="a"><copy><from>1</from><to variable="v" qury="Row[1]"/></copy></assign>`,
		`<invoke name="i" operation="o"><toPart part="p" expr="1"/></invoke>`,
		`<while name="w"><condition lang="x">1</condition><sequence name="s"/></while>`,
	} {
		doc := `<process name="p"><variables><variable name="v" type="string"/></variables>` + body + `</process>`
		if _, err := UnmarshalBISProcess(doc, nil); err == nil || !strings.Contains(err.Error(), "unsupported attribute") {
			t.Errorf("loading %s: %v, want the unsupported-attribute error", body, err)
		}
	}
	for _, doc := range []string{
		`<process name="p"><variables><variable name="v" typ="xml"/></variables><sequence name="s"/></process>`,
		`<process name="p"><wid:artifacts><wid:setReference name="SR" kind="result"><wid:cleanup dataSource="DS">DROP TABLE {TABLE}</wid:cleanup></wid:setReference></wid:artifacts><sequence name="s"/></process>`,
		`<process name="p"><wid:artifacts><wid:dataSourceVariable name="DS" source="orderdb"/></wid:artifacts><sequence name="s"/></process>`,
	} {
		if _, err := UnmarshalBISProcess(doc, nil); err == nil || !strings.Contains(err.Error(), "attribute") {
			t.Errorf("loading %s: %v, want an attribute error", doc, err)
		}
	}
}

// TestBadExpressionIsAnError: an expression that does not compile, at
// each place a document holds one an activity builder would compile, is
// an error naming the activity and the expression, not a panic.
func TestBadExpressionIsAnError(t *testing.T) {
	for _, tc := range []struct{ activity, body string }{
		{"invoke i", `<invoke name="i" operation="o"><toPart part="p" expression="$$"/></invoke>`},
		{"assign a", `<assign name="a"><copy><from>$$</from><to variable="v"/></copy></assign>`},
		{"assign a", `<assign name="a"><copy><from>1</from><to variable="v" query="$$"/></copy></assign>`},
	} {
		doc := `<process name="p"><variables><variable name="v" type="string"/></variables>` + tc.body + `</process>`
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("loading %s panicked: %v", tc.body, r)
				}
			}()
			_, err := UnmarshalBISProcess(doc, nil)
			if err == nil || !strings.Contains(err.Error(), tc.activity) || !strings.Contains(err.Error(), `"$$"`) {
				t.Errorf("loading %s: %v, want an error naming %s and the expression", tc.body, err, tc.activity)
			}
		}()
	}
}
