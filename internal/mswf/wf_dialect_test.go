package mswf

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wfsql/internal/dataset"
	"wfsql/internal/obsv"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
)

// The WF ledger: one row per activity kind the WF runtime runs (a type
// with an Execute(*Context) error method in this package), per XOML
// element buildActivity reads, with its attributes, per BPEL element
// ExportBPEL writes and ImportBPEL reads, with its attributes, and per
// exported method of internal/dataset's DataSet, DataTable, DataRow and
// DataAdapter. Each row names the code that issues it: a file of this
// module and text of that file that shows the form. The issuers are
// resilient.go's code-only Figure 6, the markup Figure 6 of
// internal/patterns/microsoft.go with its BPEL round trip (run by
// cmd/tables -verify and cmd/patterncheck), cmd/wfrun's sample, the
// examples and the benchmark's probes (bench/).
//
// A BPEL row no program writes stays only as Table I's "XOML (BPEL)"
// claim on a XOML form an issuer uses: cell is the Table I text in
// internal/patterns that names the claim.
//
// TestWFDialectRowsBuildAndRun is the forward check: every kind runs in a
// workflow built in code, a document holding every XOML row loads and
// runs, its BPEL export holds every BPEL row and imports to a workflow
// that runs alike, and each issuer holds its marker (and each cell its
// text). TestWFDialectNamesEveryForm is the reverse one: it reads the
// source with go/ast and fails on an activity kind, an element or
// attribute name xoml.go or bpel.go reads or writes, or an exported
// dataset method that no row names — so a form is added with the row
// that says who issues it — and on a loader that takes an attribute no
// row names (xomlAttrs, bpelAttrs).
//
// What no row named was deleted: ParallelActivity (the one place an
// instance ran on two goroutines), IfElseActivity and TerminateActivity,
// their XOML elements, BPEL's flow, if/elseif/else, exit and empty, the
// XOML name fallbacks (an activity without x:Name), a while of several
// body activities, the SQL activity's ResultTable and literal
// parameters, and DataTable's HasChanges, RejectChanges and Select; both
// loaders refuse an attribute their element does not take. The
// refusal tests keep the old names: TestParallel, TestIfElse,
// TestTerminate, TestExportBPELTerminateAndParallel,
// TestBPELImportPlainBPEL and internal/dataset's TestRejectChanges.
type wfRow struct {
	form   string // a kind, an element and its attributes, or a "Type.Method"
	issuer string // a file of the module ...
	marker string // ... holding this text
	cell   string // for a BPEL row no program writes: internal/patterns text naming its Table I claim
}

const (
	figure6Code   = "resilient.go"
	figure6Markup = "internal/patterns/microsoft.go"
	sampleXOML    = "cmd/wfrun/testdata/sample.xoml"
	datasync      = "examples/datasync/main.go"
)

var kindRows = []wfRow{
	{"SequenceActivity", figure6Code, `mswf.NewSequence("main",`, ""},
	{"WhileActivity", figure6Code, `mswf.NewWhile("while", patterns.Figure6HasMoreItems,`, ""},
	{"CodeActivity", figure6Code, `mswf.NewCode("bindNext", patterns.Figure6BindNext)`, ""},
	{"InvokeWebServiceActivity", figure6Code, `invoke := &mswf.InvokeWebServiceActivity{`, ""},
	{"SQLDatabaseActivity", figure6Code, `mswf.NewSQLDatabase("SQLDatabase1", ConnString, aggregationSQL)`, ""},
}

var xomlRows = []wfRow{
	{"SequenceActivity x:Name", sampleXOML, `<SequenceActivity x:Name="main">`, ""},
	{"SQLDatabaseActivity x:Name ConnectionString Statement RowsAffected", sampleXOML, `RowsAffected="inserted"/>`, ""},
	{"SQLDatabaseActivity ResultSet Keys", sampleXOML, `ResultSet="bigItems" Keys="ItemID">`, ""},
	{"Parameter Name Variable", sampleXOML, `<Parameter Name="@minTotal" Variable="minTotal"/>`, ""},
	{"WhileActivity x:Name Condition", figure6Markup, `<WhileActivity x:Name="while" Condition="rule:HasMoreItems">`, ""},
	{"CodeActivity x:Name Handler", figure6Markup, `<CodeActivity x:Name="bindNext" Handler="BindNext"/>`, ""},
	{"InvokeWebServiceActivity x:Name Service", figure6Markup, `<InvokeWebServiceActivity x:Name="invoke" Service="OrderFromSupplier">`, ""},
	{"Input Part Variable", figure6Markup, `<Input Part="ItemID" Variable="CurrentItemID"/>`, ""},
	{"Output Part Variable", figure6Markup, `<Output Part="OrderConfirmation" Variable="OrderConfirmation"/>`, ""},
}

// exportFigure6 is where Figure 6's markup goes to BPEL and back.
const exportFigure6 = `doc, err := mswf.ExportBPEL("Figure6", markup)`

var bpelRows = []wfRow{
	{"process name xmlns", figure6Markup, exportFigure6, ""},
	{"sequence name", figure6Markup, exportFigure6, ""},
	{"while name", figure6Markup, exportFigure6, ""},
	{"condition expressionLanguage", figure6Markup, exportFigure6, ""},
	{"invoke name operation", figure6Markup, exportFigure6, ""},
	{"toPart part fromVariable", figure6Markup, exportFigure6, ""},
	{"fromPart part toVariable", figure6Markup, exportFigure6, ""},
	{"extensionActivity", figure6Markup, exportFigure6, ""},
	{"wf:code name handler", figure6Markup, exportFigure6, ""},
	{"wf:sqlDatabase name connectionString statement resultSet keys", figure6Markup, exportFigure6, ""},
	{"wf:parameter name variable", figure6Markup, exportFigure6, ""},
	{"wf:sqlDatabase rowsAffected", sampleXOML, `RowsAffected="inserted"/>`, `"C#, VB, XOML (BPEL)"`},
}

var datasetRows = []wfRow{
	{"DataRow.State", datasync, `row.State())`, ""},
	{"DataRow.Get", "internal/dataset/dataset.go", `v, err := r.Get(column)`, ""},
	{"DataRow.MustGet", figure6Markup, `row.MustGet("ItemID").S`, ""},
	{"DataRow.Set", datasync, `bolt.Set("Stock", sqldb.Int(100))`, ""},
	{"DataRow.Delete", datasync, `washer.Delete()`, ""},
	{"DataRow.AcceptRow", "internal/mswf/persistence.go", `row.AcceptRow()`, ""},
	{"DataTable.AddRow", "internal/mswf/cal.go", `t.AddRow(row...)`, ""},
	{"DataTable.Rows", datasync, `tab.Rows()`, ""},
	{"DataTable.EachRow", "internal/mswf/persistence.go", `t.EachRow(func(state dataset.RowState, vals []sqldb.Value) {`, ""},
	{"DataTable.Count", figure6Markup, `v.(*dataset.DataSet).Table("Result").Count()`, ""},
	{"DataTable.Row", figure6Markup, `v.(*dataset.DataSet).Table("Result").Row(int(i))`, ""},
	{"DataTable.Find", figure6Markup, `tab.Find(sqldb.Int(1))`, ""},
	{"DataTable.Changes", "internal/dataset/adapter.go", `added, modified, deleted := t.Changes()`, ""},
	{"DataTable.AcceptChanges", "internal/mswf/cal.go", `t.AcceptChanges()`, ""},
	{"DataTable.String", "internal/dataset/dataset.go", `b.WriteString(t.String())`, ""},
	{"DataSet.Table", figure6Markup, `v.(*dataset.DataSet).Table("Result")`, ""},
	{"DataSet.AddTable", "internal/mswf/cal.go", `ds.AddTable(t)`, ""},
	{"DataSet.EachTable", "internal/mswf/persistence.go", `ds.EachTable(func(t *dataset.DataTable) {`, ""},
	{"DataSet.String", "cmd/wfrun/main.go", `fmt.Printf("  %s = %v\n", name, v)`, ""},
	{"DataAdapter.Fill", "bench/probes.go", `adapter.Fill(cache, "Orders")`, ""},
	{"DataAdapter.Update", figure6Markup, `adapter.Update(v.(*dataset.DataSet), "Result")`, ""},
}

// ledgerXOML holds every XOML row: Figure 6 with a row count on its
// INSERT, as cmd/wfrun's sample counts its INSERT … SELECT.
var ledgerXOML = strings.Replace(figure6XOML, `Statement="INSERT`, `RowsAffected="inserted" Statement="INSERT`, 1)

// checkIssuers checks that each row's issuer holds its marker and each
// cell row's cell is named in internal/patterns.
func checkIssuers(t *testing.T, rows []wfRow) {
	t.Helper()
	read := func(file string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, r := range rows {
		if !strings.Contains(read(r.issuer), r.marker) {
			t.Errorf("%s: %s does not hold %q", r.form, r.issuer, r.marker)
		}
		if r.cell != "" && !strings.Contains(read("internal/patterns/microsoft.go"), r.cell) {
			t.Errorf("%s: internal/patterns names no claim %s", r.form, r.cell)
		}
		if strings.HasSuffix(r.issuer, "_test.go") {
			t.Errorf("%s: a test is no issuer", r.form)
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

// checkHolds checks that doc holds every row's element with its
// attributes.
func checkHolds(t *testing.T, doc string, rows []wfRow) {
	t.Helper()
	root, err := xdm.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if f := strings.Fields(r.form); !holds(root, f[0], f[1:]) {
			t.Errorf("%s: the document lacks it:\n%s", r.form, doc)
		}
	}
}

// figure6Runtime is a runtime on a fresh order database that resolves
// the names ledgerXOML uses.
func figure6Runtime() (*Runtime, *sqldb.DB) {
	db := ordersDB()
	rt := newRuntime(db)
	svc := wsbus.NewOrderFromSupplier(0)
	rt.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) { return svc.Handle(req) })
	rt.RegisterHandler("BindNext", func(c *Context) error {
		i, _ := c.GetInt("Index")
		row, err := c.vars["SV_ItemList"].(*dataset.DataSet).Table("Result").Row(int(i))
		if err != nil {
			return err
		}
		c.Set("CurrentItemID", row.MustGet("ItemID").S)
		c.Set("CurrentItemQuantity", row.MustGet("ItemQuantity").I)
		c.Set("Index", i+1)
		return nil
	})
	rt.RegisterRule("HasMoreItems", func(c *Context) (bool, error) {
		i, _ := c.GetInt("Index")
		return int(i) < c.vars["SV_ItemList"].(*dataset.DataSet).Table("Result").Count(), nil
	})
	return rt, db
}

// runLedger runs wf on a fresh figure6Runtime and returns what it left:
// the confirmations and the last INSERT's row count.
func runLedger(t *testing.T, wf Activity) string {
	t.Helper()
	rt, db := figure6Runtime()
	c, err := rt.Run(wf, map[string]any{"Index": 0})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(db.MustExec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID").Rows,
		" inserted=", c.GetString("inserted"))
}

func TestWFDialectRowsBuildAndRun(t *testing.T) {
	checkIssuers(t, slices.Concat(kindRows, xomlRows, bpelRows, datasetRows))

	// Every kind runs, named after its row, in one workflow built in code.
	rt, _ := figure6Runtime()
	col := obsv.NewCollector()
	o := obsv.New()
	o.Tracer.AddSink(col)
	rt.SetObservability(o)
	kinds := NewSequence("SequenceActivity",
		NewSQLDatabase("SQLDatabaseActivity", conn, "SELECT ItemID FROM Orders").Into("rows"),
		NewWhile("WhileActivity", func(c *Context) (bool, error) { return c.GetString("n") == "", nil },
			NewCode("CodeActivity", func(c *Context) error { c.Set("n", "1"); return nil })),
		&InvokeWebServiceActivity{ActivityName: "InvokeWebServiceActivity", ServiceName: "OrderFromSupplier",
			Inputs:  map[string]string{"ItemID": "n", "Quantity": "n"},
			Outputs: map[string]string{"OrderConfirmation": "conf"}},
	)
	if _, err := rt.Run(kinds, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range kindRows {
		if spans := col.ByName(r.form); len(spans) == 0 || spans[0].Outcome != obsv.OutcomeOK {
			t.Errorf("%s: no activity of the kind ran to completion", r.form)
		}
	}

	// Every XOML row loads and runs; the BPEL export holds every BPEL row
	// and imports to a workflow that runs alike and exports the same.
	checkHolds(t, ledgerXOML, xomlRows)
	markup, err := LoadXOML(ledgerXOML)
	if err != nil {
		t.Fatal(err)
	}
	want := runLedger(t, markup)
	if !strings.Contains(want, "CONFIRMED:bolt:15") || !strings.HasSuffix(want, "inserted=1") {
		t.Fatalf("the ledger workflow left %s", want)
	}
	doc, err := ExportBPEL("Ledger", markup)
	if err != nil {
		t.Fatal(err)
	}
	checkHolds(t, doc, bpelRows)
	imported, err := ImportBPEL(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := runLedger(t, imported); got != want {
		t.Fatalf("the imported workflow left %s, the markup %s", got, want)
	}
	if doc2, err := ExportBPEL("Ledger", imported); err != nil || doc2 != doc {
		t.Fatalf("the round trip is not stable (%v):\n%s\n---\n%s", err, doc, doc2)
	}

	// cmd/wfrun's sample loads.
	sample, err := os.ReadFile(filepath.Join("..", "..", sampleXOML))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadXOML(string(sample)); err != nil {
		t.Fatal(err)
	}
}

func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(gotoken.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = f
	}
	return out
}

// recv returns the receiver type name of a method (nil: not a method).
func recv(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	x := fn.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	id, _ := x.(*ast.Ident)
	return id.String()
}

// kinds returns the types with an Execute(*Context) error method in this
// package's non-test files.
func kinds(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, f := range parseDir(t, ".") {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || recv(fn) == "" || fn.Name.Name != "Execute" || fn.Type.Params.NumFields() != 1 ||
				fn.Type.Results.NumFields() != 1 {
				continue
			}
			star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
			if id, _ := star.X.(*ast.Ident); !ok || id.String() != "Context" {
				continue
			}
			if id, _ := fn.Type.Results.List[0].Type.(*ast.Ident); id.String() == "error" {
				out = append(out, recv(fn))
			}
		}
	}
	return out
}

// names returns the element and attribute names f writes or reads: the
// string literals of its case clauses, the first argument of every call
// that builds or reads an element or attribute, every argument of
// readResultAttrs, and every literal compared with a Name field.
func names(f *ast.File) []string {
	str := func(x ast.Expr) (string, bool) {
		b, ok := x.(*ast.BasicLit)
		if !ok || b.Kind != gotoken.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil && s != ""
	}
	isName := func(x ast.Expr) bool {
		sel, ok := x.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Name"
	}
	var out []string
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
			args := n.Args[:1]
			switch sel.Sel.Name {
			case "readResultAttrs":
				args = n.Args
			case "NewElement", "Element", "SetAttr", "Attr", "FirstChildElement":
			default:
				args = nil
			}
			for _, a := range args {
				if s, ok := str(a); ok {
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
		}
		return true
	})
	return out
}

// exported returns the exported methods of the named types in dir's
// non-test files, as "Type.Method".
func exported(t *testing.T, dir string, types ...string) []string {
	t.Helper()
	var out []string
	for _, f := range parseDir(t, dir) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && slices.Contains(types, recv(fn)) && fn.Name.IsExported() {
				out = append(out, recv(fn)+"."+fn.Name.Name)
			}
		}
	}
	return out
}

func TestWFDialectNamesEveryForm(t *testing.T) {
	check := func(what string, found []string, rows []wfRow) {
		t.Helper()
		if len(found) == 0 {
			t.Fatalf("found no %s", what)
		}
		named := map[string]bool{}
		for _, r := range rows {
			for _, n := range strings.Fields(r.form) {
				named[n] = true
			}
		}
		for _, n := range found {
			if !named[n] {
				t.Errorf("%s %s is named by no row", what, n)
			}
		}
	}
	files := parseDir(t, ".")
	// The loaders take on each element exactly the attributes its rows
	// name, and refuse every other (refuseAttrs).
	for _, d := range []struct {
		accepted map[string][]string
		rows     []wfRow
	}{{xomlAttrs, xomlRows}, {bpelAttrs, bpelRows}} {
		want := map[string][]string{}
		for _, r := range d.rows {
			f := strings.Fields(r.form)
			want[f[0]] = append(want[f[0]], f[1:]...)
		}
		for el, attrs := range want {
			slices.Sort(attrs)
			got := slices.Clone(d.accepted[el])
			slices.Sort(got)
			if _, ok := d.accepted[el]; !ok || !slices.Equal(slices.Compact(attrs), got) {
				t.Errorf("the loader takes %v on %s, its rows name %v", got, el, slices.Compact(attrs))
			}
		}
		for el := range d.accepted {
			if _, ok := want[el]; !ok {
				t.Errorf("the loader takes element %s, which no row names", el)
			}
		}
	}
	check("activity kind", kinds(t), kindRows)
	check("XOML name", names(files["xoml.go"]), xomlRows)
	check("BPEL name", names(files["bpel.go"]), bpelRows)
	check("dataset method", exported(t, filepath.Join("..", "dataset"), "DataSet", "DataTable", "DataRow", "DataAdapter"), datasetRows)
}
