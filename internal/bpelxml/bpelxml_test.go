package bpelxml

import (
	"strings"
	"testing"
	"time"

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
		Preparation("DS", "CREATE TABLE IF NOT EXISTS RunLog (msg VARCHAR)").
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

func TestPlainProcessRoundTrip(t *testing.T) {
	p := &engine.Process{
		Name: "plain",
		Mode: engine.ShortRunning,
		Variables: []engine.VarDecl{
			{Name: "x", Kind: engine.ScalarVar, Init: "5"},
			{Name: "doc", Kind: engine.XMLVar, InitXML: "<d><v>1</v></d>"},
			{Name: "out", Kind: engine.ScalarVar},
		},
		Body: engine.NewSequence("main",
			&engine.Empty{ActivityName: "e"},
			&engine.Wait{ActivityName: "w", Duration: time.Millisecond},
			engine.NewIf("branch", engine.Cond("$x > 3"),
				engine.NewAssign("then").Copy("'big'", "out")).
				SetElse(engine.NewAssign("else").Copy("'small'", "out")),
			&engine.Scope{
				ActivityName: "sc",
				Body:         &engine.Throw{ActivityName: "boom", FaultName: "f"},
				FaultHandler: engine.NewAssign("handle").CopyTo("'9'", "doc", "v"),
				Finally:      &engine.Empty{ActivityName: "fin"},
			},
		),
	}
	doc, err := MarshalProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Mode != engine.ShortRunning || len(p2.Variables) != 3 {
		t.Fatalf("process attrs: mode=%v vars=%d", p2.Mode, len(p2.Variables))
	}
	e := engine.New(nil)
	d, err := e.Deploy(p2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.MustVariable("out").String() != "big" {
		t.Fatalf("out: %q", in.MustVariable("out").String())
	}
	if in.MustVariable("doc").Node().ChildText("v") != "9" {
		t.Fatal("fault handler assign lost")
	}
}

func TestSnippetRoundTripNeedsResolver(t *testing.T) {
	p := &engine.Process{Name: "s", Body: engine.NewSnippet("mySnippet", func(ctx *engine.Ctx) error { return nil })}
	doc, err := MarshalProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "wid:javaSnippet") {
		t.Fatalf("snippet element missing: %s", doc)
	}
	if _, err := UnmarshalProcess(doc, nil); err == nil {
		t.Fatal("expected missing-resolver error")
	}
	ran := false
	p2, err := UnmarshalProcess(doc, &Resolver{Snippets: map[string]func(ctx *engine.Ctx) error{
		"mySnippet": func(ctx *engine.Ctx) error { ran = true; return nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := engine.New(nil).Deploy(p2)
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("resolved snippet did not run")
	}
}

func TestBpelxAssignRoundTrip(t *testing.T) {
	p := &engine.Process{
		Name: "ora",
		Variables: []engine.VarDecl{
			{Name: "rs", Kind: engine.XMLVar, InitXML: "<RowSet><Row><Q>1</Q></Row></RowSet>"},
			{Name: "newRow", Kind: engine.XMLVar, InitXML: "<Row><Q>2</Q></Row>"},
		},
		Body: engine.NewSequence("main",
			orasoa.NewBpelxAssign("ops").
				Copy("'5'", "rs", "Row[1]/Q").
				InsertAfter("$newRow", "rs", "Row[1]").
				Append("$newRow", "rs", "Row[2]").
				Remove("rs", "Row[2]/Row"),
		),
	}
	doc, err := MarshalProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bpelx:insertAfter", "bpelx:append", "bpelx:remove"} {
		if !strings.Contains(doc, want) {
			t.Errorf("missing %q in:\n%s", want, doc)
		}
	}
	p2, err := UnmarshalProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := engine.New(nil).Deploy(p2)
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := in.MustVariable("rs").Node().ChildElements()
	if len(rows) != 2 {
		t.Fatalf("rows after round-tripped bpelx ops: %d", len(rows))
	}
	if rows[0].ChildText("Q") != "5" || rows[1].ChildText("Q") != "2" {
		t.Fatalf("row content: %s", in.MustVariable("rs").Node())
	}
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
		"<process name='p'><empty/><empty/></process>",
		"<process name='p'><while name='w'><empty/></while></process>",
		"<process name='p'><wait name='w' for='xyz'/></process>",
		"<process name='p'><unknown/></process>",
		"<process name='p'><extensionActivity/></process>",
		"<process name='p'><extensionActivity><wid:unknown/></extensionActivity></process>",
		"<process name='p'><scope name='s'></scope></process>",
	}
	for _, doc := range bad {
		if _, err := UnmarshalProcess(doc, nil); err == nil {
			t.Errorf("UnmarshalProcess(%q): expected error", doc)
		}
	}
}

func TestMarshalRejectsGoConditions(t *testing.T) {
	p := &engine.Process{Name: "p", Body: engine.NewWhile("w",
		engine.FuncCondition(func(ctx *engine.Ctx) (bool, error) { return false, nil }),
		&engine.Empty{ActivityName: "e"})}
	if _, err := MarshalProcess(p); err == nil {
		t.Fatal("Go-coded condition must not marshal")
	}
}

func TestReceiveReplyRoundTrip(t *testing.T) {
	p := &engine.Process{
		Name: "rr",
		Variables: []engine.VarDecl{
			{Name: "item", Kind: engine.ScalarVar},
			{Name: "note", Kind: engine.ScalarVar, Init: "none"},
		},
		Body: engine.NewSequence("main",
			engine.NewReceive("in").Part("ItemID", "item").OptionalPart("Note", "note"),
			engine.NewReply("out").Part("Echo", "$item"),
		),
	}
	doc, err := MarshalProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<receive", "<reply", `optional="true"`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("missing %q:\n%s", want, doc)
		}
	}
	p2, err := UnmarshalProcess(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := engine.New(nil).Deploy(p2)
	in, err := d.Run(map[string]string{"ItemID": "bolt"})
	if err != nil {
		t.Fatal(err)
	}
	if in.Output()["Echo"] != "bolt" {
		t.Fatalf("round-tripped reply: %v", in.Output())
	}
}
