package bpelxml

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

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/orasoa"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
)

// The BPEL ledger: one row per activity kind the engine and the product
// layers run (a type with an Execute(*engine.Ctx) error method in
// internal/engine, internal/bis or internal/orasoa) and per element of a
// BPEL document this package writes and reads, with its attributes. Each
// row names the code that issues it: a file of this module and text of
// that file that shows the form. The issuers are the figure processes
// (resilient.go), the engine's cursor, the pattern conformance cases
// (internal/patterns), the BPEL document bpelrun runs (cmd/bpelrun/
// testdata) and the benchmark's probes (bench/).
//
// A row no program issues stays only as a BIS or Oracle mechanism of the
// paper's Table I or II: cell is text of internal/patterns that names the
// cell, and the issuer is the test that pins the row.
//
// TestBPELDialectRowsBuildAndRun is the forward check: every kind runs in
// a process built in code, every element is read from a document, run and
// written back, and each issuer holds its marker (and each cell its
// text). TestBPELDialectNamesEveryForm is the reverse one: it reads the
// source with go/ast and fails on an activity kind, or on an element or
// attribute name bpelxml writes or reads, that no row names — so a form
// is added with the row that says who issues it.
//
// The kinds and elements no row names were deleted: flow, if, scope,
// throw, compensate, wait, receive, reply and empty, and Oracle's bpelx
// assign operations as document elements (Oracle processes are built in
// code). Loading a document that holds one is an error; the refusal tests
// are TestUnmarshalErrors, TestReceiveReplyRoundTrip and
// TestBpelxAssignRoundTrip here, and the tests in
// internal/engine/refused_test.go named after what the engine's kinds
// once did.
type bpelRow struct {
	form   string // a kind ("engine.Sequence") or an element and its attributes ("wid:sql name dataSource")
	issuer string // a file of the module ...
	marker string // ... holding this text
	cell   string // for a row no program issues: internal/patterns text naming its Table I/II cell
}

var kindRows = []bpelRow{
	{"engine.Sequence", "resilient.go", `engine.NewSequence("main",`, ""},
	{"engine.While", "internal/engine/activity.go", `NewWhile(name+"_while", cond,`, ""},
	{"engine.Assign", "resilient.go", `engine.NewAssign("extract")`, ""},
	{"engine.Invoke", "resilient.go", `engine.NewInvoke("invoke", "OrderFromSupplier")`, ""},
	{"engine.Snippet", "internal/engine/activity.go", `NewSnippet(name+"_bind",`, ""},
	{"engine.Empty", "bench/probes.go", `&engine.Empty{ActivityName: "empty"}`, ""},
	{"engine.JournaledActivity", "resilient.go", `orasoa.SQLEffect(`, ""},
	{"bis.SQLActivity", "resilient.go", `bis.NewSQL("SQL1", "DS",`, ""},
	{"bis.RetrieveSetActivity", "resilient.go", `bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList")`, ""},
	{"bis.AtomicSQLSequence", "internal/bis/bis_test.go", "func TestAtomicSQLSequenceCommits(", `"Atomic SQL Sequence"`},
	{"orasoa.BpelxAssign", "internal/patterns/oracle.go", `orasoa.NewBpelxAssign("local").Copy(`, ""},
}

const figure4 = "cmd/bpelrun/testdata/figure4.bpel"

var elementRows = []bpelRow{
	{"process name xmlns", figure4, `<process name="Figure4" xmlns=`, ""},
	{"variables", figure4, "<variables>", ""},
	{"variable name type", figure4, `<variable name="SV_ItemList" type="xml"/>`, ""},
	{"variable name type init", figure4, `<variable name="pos" type="string" init="1"/>`, ""},
	{"sequence name", figure4, `<sequence name="main">`, ""},
	{"while name", figure4, `<while name="loop">`, ""},
	{"condition", figure4, "<condition>$pos &lt;= count($SV_ItemList/Row)</condition>", ""},
	{"assign name", figure4, `<assign name="extract">`, ""},
	{"copy", figure4, "<copy>", ""},
	{"from", figure4, "<from>$pos + 1</from>", ""},
	{"to variable", figure4, `<to variable="pos"/>`, ""},
	{"to variable query", "internal/bpelxml/bpelxml_test.go", "func TestPlainProcessRoundTrip(",
		`{mechAssignBPEL, TupleIUD, Partial, "only UPDATE"}`},
	{"invoke name operation", figure4, `<invoke name="invoke" operation="OrderFromSupplier">`, ""},
	{"toPart part expression", figure4, `<toPart part="ItemID" expression="$CurrentItemID"/>`, ""},
	{"fromPart part toVariable", figure4, `<fromPart part="OrderConfirmation" toVariable="OrderConfirmation"/>`, ""},
	{"extensionActivity", figure4, "<extensionActivity>", ""},
	{"wid:sql name dataSource resultSetReference", figure4, `<wid:sql name="SQL1" dataSource="DS" resultSetReference="SR_ItemList">`, ""},
	{"wid:retrieveSet name dataSource setReference setVariable", figure4,
		`<wid:retrieveSet name="retrieveSet" dataSource="DS" setReference="SR_ItemList" setVariable="SV_ItemList"/>`, ""},
	{"wid:atomicSQLSequence name", "internal/bpelxml/bpelxml_test.go", "func TestAtomicSequenceRoundTrip(", `"Atomic SQL Sequence"`},
	{"wid:javaSnippet name", "internal/bpelxml/bpelxml_test.go", "func TestSnippetRoundTripNeedsResolver(",
		`{WorkaroundRow, SeqSetAccess, WorkaroundOnly, ""}`},
	{"wid:artifacts", figure4, "<wid:artifacts>", ""},
	{"wid:dataSourceVariable name dataSource", figure4, `<wid:dataSourceVariable name="DS" dataSource="orderdb"/>`, ""},
	{"wid:setReference name kind table", figure4, `<wid:setReference name="SR_Orders" kind="input" table="Orders"/>`, ""},
	{"wid:preparation dataSource", "internal/bpelxml/bpelxml_test.go", "func TestBISDocumentRoundTrip(",
		`"Lifecycle Management for DB Entities"`},
	{"wid:cleanup dataSource", "internal/bpelxml/bpelxml_test.go", "func TestBISDocumentRoundTrip(",
		`"Lifecycle Management for DB Entities"`},
}

// ledgerDocument holds every element row: Figure 4's loop, a to-query
// assign, an atomic SQL sequence, a Java snippet and lifecycle
// statements for a set reference and a data source.
const ledgerDocument = `<process name="Ledger" xmlns="http://docs.oasis-open.org/wsbpel/2.0/process/executable">
  <wid:artifacts>
    <wid:dataSourceVariable name="DS" dataSource="orderdb"/>
    <wid:setReference name="SR_Orders" kind="input" table="Orders"/>
    <wid:setReference name="SR_OrderConfirmations" kind="input" table="OrderConfirmations"/>
    <wid:setReference name="SR_ItemList" kind="result">
      <wid:cleanup>DROP TABLE IF EXISTS {TABLE}</wid:cleanup>
    </wid:setReference>
    <wid:preparation dataSource="DS">CREATE TABLE RunLog (msg VARCHAR)</wid:preparation>
    <wid:cleanup dataSource="DS">INSERT INTO RunLog VALUES ('done')</wid:cleanup>
  </wid:artifacts>
  <variables>
    <variable name="SV_ItemList" type="xml"/>
    <variable name="CurrentItemID" type="string"/>
    <variable name="CurrentQuantity" type="string"/>
    <variable name="OrderConfirmation" type="string"/>
    <variable name="pos" type="string" init="1"/>
  </variables>
  <sequence name="main">
    <extensionActivity>
      <wid:sql name="SQL1" dataSource="DS" resultSetReference="SR_ItemList">SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders# WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID</wid:sql>
    </extensionActivity>
    <extensionActivity>
      <wid:retrieveSet name="retrieveSet" dataSource="DS" setReference="SR_ItemList" setVariable="SV_ItemList"/>
    </extensionActivity>
    <assign name="double">
      <copy>
        <from>$SV_ItemList/Row[1]/Quantity + $SV_ItemList/Row[1]/Quantity</from>
        <to variable="SV_ItemList" query="Row[1]/Quantity"/>
      </copy>
    </assign>
    <while name="loop">
      <condition>$pos &lt;= count($SV_ItemList/Row)</condition>
      <sequence name="loopBody">
        <assign name="extract">
          <copy>
            <from>$SV_ItemList/Row[position() = $pos]/ItemID</from>
            <to variable="CurrentItemID"/>
          </copy>
          <copy>
            <from>$SV_ItemList/Row[position() = $pos]/Quantity</from>
            <to variable="CurrentQuantity"/>
          </copy>
        </assign>
        <invoke name="invoke" operation="OrderFromSupplier">
          <toPart part="ItemID" expression="$CurrentItemID"/>
          <toPart part="Quantity" expression="$CurrentQuantity"/>
          <fromPart part="OrderConfirmation" toVariable="OrderConfirmation"/>
        </invoke>
        <extensionActivity>
          <wid:sql name="SQL2" dataSource="DS">INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)</wid:sql>
        </extensionActivity>
        <assign name="advance">
          <copy>
            <from>$pos + 1</from>
            <to variable="pos"/>
          </copy>
        </assign>
      </sequence>
    </while>
    <extensionActivity>
      <wid:atomicSQLSequence name="atomic">
        <extensionActivity>
          <wid:sql name="SQL3" dataSource="DS">UPDATE #SR_Orders# SET Quantity = Quantity + 1 WHERE ItemID = 'nut'</wid:sql>
        </extensionActivity>
      </wid:atomicSQLSequence>
    </extensionActivity>
    <extensionActivity>
      <wid:javaSnippet name="mark"/>
    </extensionActivity>
  </sequence>
</process>`

// checkIssuers checks that each row's issuer holds its marker and each
// cell row's cell is named in internal/patterns.
func checkIssuers(t *testing.T, rows []bpelRow) {
	t.Helper()
	read := func(file string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	patterns := read("internal/patterns/ibm.go") + read("internal/patterns/oracle.go")
	for _, r := range rows {
		if !strings.Contains(read(r.issuer), r.marker) {
			t.Errorf("%s: %s does not hold %q", r.form, r.issuer, r.marker)
		}
		if r.cell != "" && !strings.Contains(patterns, r.cell) {
			t.Errorf("%s: internal/patterns names no cell %s", r.form, r.cell)
		}
		if r.cell == "" && strings.HasSuffix(r.issuer, "_test.go") {
			t.Errorf("%s: a test is no issuer unless the row names a Table I/II cell", r.form)
		}
	}
}

// holds reports whether the tree under n has an element named elem with
// every listed attribute.
func holds(n *xdm.Node, elem string, attrs []string) bool {
	if n.Name == elem && !slices.ContainsFunc(attrs, func(a string) bool { _, ok := n.Attr(a); return !ok }) {
		return true
	}
	return slices.ContainsFunc(n.ChildElements(), func(c *xdm.Node) bool { return holds(c, elem, attrs) })
}

func TestBPELDialectRowsBuildAndRun(t *testing.T) {
	checkIssuers(t, slices.Concat(kindRows, elementRows))

	// Every kind runs, named after its row, in one process built in code.
	kinds := bis.NewProcess("kinds").
		DataSourceVariable("DS", "orderdb").
		InputSetReference("SR_Orders", "Orders").
		ResultSetReference("SR_R").
		XMLVariable("SV", "").
		Variable("n", "0").
		Variable("j", "").
		Variable("conf", "").
		Body(engine.NewSequence("engine.Sequence",
			bis.NewSQL("bis.SQLActivity", "DS", "SELECT ItemID, Quantity FROM #SR_Orders# ORDER BY OrderID").Into("SR_R"),
			bis.NewRetrieveSet("bis.RetrieveSetActivity", "DS", "SR_R", "SV"),
			engine.NewWhile("engine.While", engine.Cond("$n <= 0"), engine.NewAssign("engine.Assign").Copy("$n + 1", "n")),
			engine.NewInvoke("engine.Invoke", "OrderFromSupplier").
				In("ItemID", "'bolt'").In("Quantity", "1").Out("OrderConfirmation", "conf"),
			engine.NewSnippet("engine.Snippet", func(ctx *engine.Ctx) error { return nil }),
			&engine.Empty{ActivityName: "engine.Empty"},
			engine.Journaled(engine.NewAssign("engine.JournaledActivity").Copy("'j'", "j"), journal.EffectSQL, "j"),
			bis.NewAtomicSequence("bis.AtomicSQLSequence",
				bis.NewSQL("bump", "DS", "UPDATE #SR_Orders# SET Quantity = Quantity + 1")),
			orasoa.NewBpelxAssign("orasoa.BpelxAssign").Copy("'55'", "SV", "Row[1]/Quantity"),
		))
	db := ordersDB()
	bus := wsbus.New()
	bus.Register("OrderFromSupplier", wsbus.NewOrderFromSupplier(0).Handle)
	e := engine.New(bus)
	e.RegisterDataSource("orderdb", db)
	col := obsv.NewCollector()
	o := obsv.New()
	o.Tracer.AddSink(col)
	e.SetObservability(o)
	d, err := e.Deploy(kinds.Build())
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range kindRows {
		if spans := col.ByName(r.form); len(spans) == 0 || spans[0].Outcome != obsv.OutcomeOK {
			t.Errorf("%s did not run: %v", r.form, spans)
		}
	}
	if in.MustVariable("n").String() != "1" || in.MustVariable("j").String() != "j" ||
		in.MustVariable("conf").String() != "CONFIRMED:bolt:1" || in.MustVariable("SV").Node().Children[0].ChildText("Quantity") != "55" {
		t.Fatal("a kind ran without its effect")
	}

	// Every element is read from a document, runs, and is written back.
	marked := false
	r := &Resolver{Snippets: map[string]func(*engine.Ctx) error{
		"mark": func(*engine.Ctx) error { marked = true; return nil },
	}}
	b, err := UnmarshalBISProcess(ledgerDocument, r)
	if err != nil {
		t.Fatal(err)
	}
	db = ordersDB()
	e = engine.New(bus)
	e.RegisterDataSource("orderdb", db)
	if d, err = e.Deploy(b.Build()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	got := db.MustExec("SELECT ItemID, Quantity FROM OrderConfirmations ORDER BY ItemID").String() +
		db.MustExec("SELECT COUNT(*) AS runs FROM RunLog").String() +
		db.MustExec("SELECT SUM(Quantity) AS nuts FROM Orders WHERE ItemID = 'nut'").String()
	if !marked || !strings.Contains(got, "bolt   | 30") || !strings.Contains(got, "\n1\n") || !strings.Contains(got, "\n12\n") {
		t.Fatalf("the document ran without its effects (snippet ran: %v):\n%s", marked, got)
	}
	doc, err := MarshalBISProcess(b)
	if err != nil {
		t.Fatal(err)
	}
	root := xdm.MustParse(doc)
	for _, r := range elementRows {
		f := strings.Fields(r.form)
		if !holds(xdm.MustParse(ledgerDocument), f[0], f[1:]) || !holds(root, f[0], f[1:]) {
			t.Errorf("%s: the ledger document or its round trip lacks it", r.form)
		}
	}
	b2, err := UnmarshalBISProcess(doc, r)
	if err != nil {
		t.Fatal(err)
	}
	if doc2, err := MarshalBISProcess(b2); err != nil || doc2 != doc {
		t.Fatalf("the round trip is not stable (%v):\n%s\n---\n%s", err, doc, doc2)
	}
}

// kinds returns the types with an Execute(*engine.Ctx) error method in
// the non-test files of internal/engine, internal/bis and internal/orasoa,
// as "<package>.<type>".
func kinds(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, pkg := range []string{"engine", "bis", "orasoa"} {
		for _, f := range parseDir(t, filepath.Join("..", pkg)) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != "Execute" || fn.Type.Params.NumFields() != 1 ||
					fn.Type.Results.NumFields() != 1 {
					continue
				}
				star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
				if !ok || !strings.HasSuffix(types(star.X), "Ctx") || types(fn.Type.Results.List[0].Type) != "error" {
					continue
				}
				recv := fn.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				out = append(out, pkg+"."+types(recv))
			}
		}
	}
	return out
}

// types prints a type expression: an identifier or a qualified one.
func types(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return types(x.X) + "." + x.Sel.Name
	}
	return ""
}

func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(gotoken.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// names returns the element and attribute names this package writes or
// reads: the string literals of its case clauses, the first argument of
// every call that builds or reads an element or attribute, and every
// literal compared with a Name field or a localName result.
func names(t *testing.T) []string {
	t.Helper()
	str := func(x ast.Expr) (string, bool) {
		b, ok := x.(*ast.BasicLit)
		if !ok || b.Kind != gotoken.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil && s != ""
	}
	isName := func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			return x.Sel.Name == "Name"
		case *ast.CallExpr:
			id, ok := x.Fun.(*ast.Ident)
			return ok && id.Name == "localName"
		}
		return false
	}
	var out []string
	for _, f := range parseDir(t, ".") {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, x := range n.List {
					if s, ok := str(x); ok {
						out = append(out, s)
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				switch sel.Sel.Name {
				case "NewElement", "Element", "ElementWithText", "SetAttr", "Attr", "ChildText", "FirstChildElement":
					if s, ok := str(n.Args[0]); ok {
						out = append(out, s)
					}
				}
			case *ast.BinaryExpr:
				if n.Op != gotoken.EQL && n.Op != gotoken.NEQ {
					break
				}
				if s, ok := str(n.Y); ok && isName(n.X) {
					out = append(out, s)
				}
				if s, ok := str(n.X); ok && isName(n.Y) {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

func TestBPELDialectNamesEveryForm(t *testing.T) {
	named := map[string]bool{}
	for _, r := range kindRows {
		named[r.form] = true
	}
	found := kinds(t)
	if len(found) == 0 {
		t.Fatal("found no activity kinds")
	}
	for _, k := range found {
		if !named[k] {
			t.Errorf("activity kind %s is named by no row", k)
		}
	}
	for _, r := range elementRows {
		for _, n := range strings.Fields(r.form) {
			named[n], named[localName(n)] = true, true
		}
	}
	found = names(t)
	if len(found) == 0 {
		t.Fatal("found no element names")
	}
	for _, n := range found {
		if !named[n] {
			t.Errorf("bpelxml writes or reads %q, which no row names", n)
		}
	}
	// The reader accepts on each element exactly the attributes its rows
	// name, and refuses every other (acceptedAttrs).
	attrs := map[string][]string{}
	for _, r := range elementRows {
		f := strings.Fields(r.form)
		el := localName(f[0])
		attrs[el] = append(attrs[el], f[1:]...)
	}
	for el, want := range attrs {
		slices.Sort(want)
		got, ok := acceptedAttrs[el]
		got = slices.Clone(got)
		if slices.Sort(got); !ok || !slices.Equal(slices.Compact(want), got) {
			t.Errorf("the reader accepts %v on %s, its rows name %v", got, el, slices.Compact(want))
		}
	}
	for el := range acceptedAttrs {
		if _, ok := attrs[el]; !ok {
			t.Errorf("the reader accepts element %s, which no row names", el)
		}
	}
}
