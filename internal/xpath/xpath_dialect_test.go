package xpath

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

	"wfsql/internal/xdm"
)

// The language's ledger: one row per expression form this package
// accepts — lexer symbol, operator, core function, predicate kind, path
// shape — with an example and the code that issues it: a file of this
// module and text of that file that shows the form. The issuers are the
// figure processes (figures.go, resilient.go), the engine's cursor
// (internal/engine), the pattern conformance cases (internal/patterns),
// the Oracle layer (internal/orasoa), examples/, the BPEL documents
// bpelxml reads (cmd/*/testdata) and the benchmark's probes (bench/). A
// runtime path is the second argument of bpel:getVariableData, compiled
// when the call runs.
//
// keptForms are the forms no issuer uses that other packages' tests still
// pin (its issuer is that test file).
//
// TestXPathDialectRowsCompileAndRun is the forward check: every row
// compiles and evaluates on the fixture RowSet to its want, and its
// issuer holds its marker. TestXPathDialectNamesEveryForm is the reverse
// one: a symbol, operator or core function the lexer, parser or
// evaluator accepts that no row's example uses, a token kind no row
// lexes, any other kind of constant (an axis or a node test), or an
// expression node no row compiles to fails it — so a form is added with
// the row that says who issues it.
type xpathRow struct {
	form   string
	expr   string // evaluated on fixtureContext
	want   string // the string value of the result
	issuer string // a file of the module ...
	marker string // ... holding this text
}

var issuedForms = []xpathRow{
	{"variable reference, child step", "$CurrentItem/ItemID", "bolt",
		"bench/probes.go", `xpath.Compile("$CurrentItem/ItemID")`},
	{"positional predicate on a variable's path", "$SV/Row[2]/ItemID", "nut",
		"internal/patterns/ibm.go", `Copy("$SV/Row[2]/ItemID", "out")`},
	{"relative location path (an assign's to-query)", "Row[1]/Quantity", "15",
		"internal/patterns/ibm.go", `CopyTo("'42'", "SV", "Row[1]/Quantity")`},
	{"string literal '…'", "'42'", "42",
		"internal/patterns/ibm.go", `CopyTo("'42'", "SV", "Row[1]/Quantity")`},
	{"number literal, +", "$pos + 1", "3",
		"cmd/bpelrun/testdata/figure4.bpel", "<from>$pos + 1</from>"},
	{"<=, count(path) (the cursor's loop condition)", "$pos <= count($SV_ItemList/Row)", "true",
		"internal/engine/activity.go", `"$%s <= count($%s/Row)"`},
	{"position(), = on numbers, boolean predicate", "$SV_ItemList/Row[position() = $pos]/Quantity", "3",
		"cmd/bpelrun/testdata/figure4.bpel", "<from>$SV_ItemList/Row[position() = $pos]/Quantity</from>"},
	{"= between a node-set and a string", "Row[ItemID = 'screw']/Quantity", "2",
		"internal/patterns/oracle.go", `Remove("rs", "Row[ItemID = 'b']")`},
	{`string literal "…" (the adapter variant's statement)`, `"SELECT 1"`, "SELECT 1",
		"figures.go", `In("statement", fmt.Sprintf("%q", aggregationSQL))`},
	{`string literal "…", extension function call`, `ora:query-database("SELECT * FROM Orders")`, "SELECT * FROM Orders",
		"internal/patterns/oracle.go", `ora:query-database("SELECT * FROM Orders")`},
	{"extension function name resolved by the Oracle layer", "ora:query-database('SELECT 1')", "SELECT 1",
		"internal/orasoa/functions.go", `case "query-database":`},
	{"extension call with arguments, continued by a path", "ora:processXSQL('push', 'q', $rs/Row[1]/Quantity, 'id', $rs/Row[1]/OrderID)/rowsAffected", "2",
		"internal/patterns/oracle.go", "ora:processXSQL('push', 'q', $rs/Row[1]/Quantity, 'id', $rs/Row[1]/OrderID)/rowsAffected"},
	{"extension call continued by several steps", "ora:processXSQL('sp')/totals/RowSet/Row[4]/ItemID", "washer",
		"internal/patterns/oracle.go", "ora:processXSQL('sp')/totals/RowSet"},
	{"extension call of the figure process", "ora:processXSQL('insertConfirmation', 'item', $CurrentItemID)/rowsAffected", "1",
		"resilient.go", "ora:processXSQL('insertConfirmation', 'item', $CurrentItemID,"},
	{"bpel:getVariableData with a path", "bpel:getVariableData('rs', 'Row[4]/ItemID')", "washer",
		"internal/patterns/oracle.go", "bpel:getVariableData('rs', 'Row[4]/ItemID')"},
	{"runtime path (getVariableData's second argument)", "Row[4]/ItemID", "washer",
		"internal/patterns/oracle.go", "'Row[4]/ItemID'"},
	{"whole variable", "$newRow", "4washer7",
		"internal/patterns/oracle.go", `InsertAfter("$newRow", "rs", "Row[2]")`},
	{"the example's cursor", "$pos <= count($SV_ItemList/Row)", "true",
		"examples/bpelroundtrip/main.go", `Cond("$pos <= count($SV_ItemList/Row)")`},
}

var keptForms = []xpathRow{}

// fixtureSet is the RowSet every row runs on: four orders.
func fixtureSet() *xdm.Node {
	return xdm.MustParse(`<RowSet>` +
		`<Row><OrderID>1</OrderID><ItemID>bolt</ItemID><Quantity>15</Quantity></Row>` +
		`<Row><OrderID>2</OrderID><ItemID>nut</ItemID><Quantity>3</Quantity></Row>` +
		`<Row><OrderID>3</OrderID><ItemID>screw</ItemID><Quantity>2</Quantity></Row>` +
		`<Row><OrderID>4</OrderID><ItemID>washer</ItemID><Quantity>7</Quantity></Row>` +
		`</RowSet>`)
}

// fixtureFuncs stands in for the products' extension functions:
// bpel:getVariableData evaluates its path on the variable as the engine
// does, ora:query-database returns a RowSet echoing its query, and
// ora:processXSQL an xsql-result with a rowsAffected of one per
// parameter pair and the fixture under totals.
type fixtureFuncs struct{ vars VarMap }

func (f fixtureFuncs) CallFunction(name string, args []Value) (Value, error) {
	if len(args) == 0 {
		return Value{}, fmt.Errorf("%s(): no arguments", name)
	}
	switch name {
	case "bpel:getVariableData":
		v, err := f.vars.ResolveVariable(args[0].AsString())
		if err != nil || len(args) == 1 {
			return v, err
		}
		if v.FirstNode() == nil {
			return Value{}, fmt.Errorf("getVariableData path on a non-XML variable")
		}
		sub, err := Compile(args[1].AsString())
		if err != nil {
			return Value{}, err
		}
		return sub.Eval(&Context{Node: v.FirstNode(), Position: 1, Vars: f.vars, Funcs: f})
	case "ora:query-database":
		rs := xdm.NewElement("RowSet")
		rs.Element("Row").ElementWithText("ItemID", args[0].AsString())
		return Value{Kind: KindNodeSet, Nodes: []*xdm.Node{rs}, Fresh: true}, nil
	case "ora:processXSQL":
		out := xdm.NewElement("xsql-result")
		out.ElementWithText("rowsAffected", strconv.Itoa(len(args)/2))
		out.Element("totals").AppendChild(fixtureSet())
		return Value{Kind: KindNodeSet, Nodes: []*xdm.Node{out}, Fresh: true}, nil
	}
	return Value{}, fmt.Errorf("unknown extension function %s()", name)
}

// fixtureContext is a context over the fixture RowSet, with the
// variables the rows name.
func fixtureContext() *Context {
	set := fixtureSet()
	vars := VarMap{
		"SV": NodeSet(set), "SV_ItemList": NodeSet(set), "rs": NodeSet(set),
		"CurrentItem": NodeSet(set.ChildElements()[0]), "newRow": NodeSet(set.ChildElements()[3]),
		"CurrentItemID": String("bolt"), "pos": Number(2), "i": Number(4), "x": Number(5),
	}
	return &Context{Node: set, Position: 1, Vars: vars, Funcs: fixtureFuncs{vars}}
}

func TestXPathDialectRowsCompileAndRun(t *testing.T) {
	files := map[string]string{}
	for _, r := range slices.Concat(issuedForms, keptForms) {
		e, err := Compile(r.expr)
		if err != nil {
			t.Errorf("%s: %s: %v", r.form, r.expr, err)
			continue
		}
		if v, err := e.Eval(fixtureContext()); err != nil || v.AsString() != r.want {
			t.Errorf("%s: %s = %q (%v), want %q", r.form, r.expr, v.AsString(), err, r.want)
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

// accepted is what the package accepts, read off parser.go and eval.go:
// every string literal a case clause, an == or != comparison, acceptSym
// or expectSym matches, each symbol of the lexer's strings.ContainsRune
// set and strings.HasPrefix operators; the names of the token kinds and
// of every other constant; and the types with an evalNode method.
func accepted(t *testing.T) (lits, kinds, others, nodes []string) {
	t.Helper()
	str := func(x ast.Expr) (string, bool) {
		b, ok := x.(*ast.BasicLit)
		if !ok || b.Kind != gotoken.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	for _, name := range []string{"parser.go", "eval.go"} {
		f, err := goparser.ParseFile(gotoken.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, x := range n.List {
					if s, ok := str(x); ok {
						lits = append(lits, s)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == gotoken.EQL || n.Op == gotoken.NEQ {
					for _, x := range []ast.Expr{n.X, n.Y} {
						if s, ok := str(x); ok {
							lits = append(lits, s)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				switch sel.Sel.Name {
				case "acceptSym", "expectSym":
					if s, ok := str(n.Args[0]); ok {
						lits = append(lits, s)
					}
				case "ContainsRune":
					if s, ok := str(n.Args[0]); ok {
						for _, c := range s {
							lits = append(lits, string(c))
						}
					}
				case "HasPrefix":
					if s, ok := str(n.Args[len(n.Args)-1]); ok {
						lits = append(lits, s)
					}
				}
			case *ast.GenDecl:
				if n.Tok != gotoken.CONST {
					break
				}
				kind := false
				for i, spec := range n.Specs {
					vs := spec.(*ast.ValueSpec)
					if id, ok := vs.Type.(*ast.Ident); i == 0 && ok && id.Name == "tokKind" {
						kind = true
					}
					for _, id := range vs.Names {
						if kind {
							kinds = append(kinds, id.Name)
						} else {
							others = append(others, id.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "evalNode" {
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					nodes = append(nodes, recv.(*ast.Ident).Name)
				}
			}
			return true
		})
	}
	return lits, kinds, others, nodes
}

// nodeTypes adds the types of n and every node under it.
func nodeTypes(n node, into map[string]bool) {
	into[strings.TrimPrefix(fmt.Sprintf("%T", n), "*xpath.")] = true
	switch n := n.(type) {
	case *binaryOp:
		nodeTypes(n.l, into)
		nodeTypes(n.r, into)
	case *funcCall:
		for _, a := range n.args {
			nodeTypes(a, into)
		}
	case *pathExpr:
		if n.base != nil {
			nodeTypes(n.base, into)
		}
		for _, st := range n.steps {
			for _, p := range st.preds {
				nodeTypes(p, into)
			}
		}
	}
}

func TestXPathDialectNamesEveryForm(t *testing.T) {
	used := map[string]bool{}     // every token text of every row's example
	lexed := map[tokKind]bool{}   // every token kind they lex to
	compiled := map[string]bool{} // every expression node they compile to
	for _, r := range slices.Concat(issuedForms, keptForms) {
		toks, err := lex(r.expr)
		if err != nil {
			t.Fatalf("%s: %v", r.form, err)
		}
		for _, tok := range toks {
			used[tok.text] = true
			lexed[tok.kind] = true
		}
		nodeTypes(MustCompile(r.expr).root, compiled)
	}
	lits, kinds, others, nodes := accepted(t)
	for _, s := range lits {
		if !used[s] {
			t.Errorf("the package accepts %q, which no row uses", s)
		}
	}
	if len(kinds) == 0 {
		t.Fatal("found no token kinds in parser.go")
	}
	for i, k := range kinds {
		if k != "tEOF" && !lexed[tokKind(i)] {
			t.Errorf("no row lexes a %s token", k)
		}
	}
	for _, c := range others {
		t.Errorf("constant %s is no token kind: the ledger's only axis is child and its only node test a name, so an axis or node test needs its row", c)
	}
	for _, n := range nodes {
		if !compiled[n] {
			t.Errorf("no row compiles to a %s", n)
		}
	}
}

// FuzzCompile: whatever its input, Compile returns; an expression it
// accepts keeps its source and evaluates on the fixture without
// panicking. Compile's input comes from outside the program: BPEL
// documents through bpelxml, and getVariableData's runtime path.
func FuzzCompile(f *testing.F) {
	for _, r := range slices.Concat(issuedForms, keptForms) {
		f.Add(r.expr)
	}
	for _, src := range refusedForms {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		if e.Source() != src {
			t.Fatalf("Source() = %q, compiled %q", e.Source(), src)
		}
		e.Eval(fixtureContext())
	})
}

// --- Forms the language refuses ---
//
// Each test below is named after a form no process issues and checks that
// Compile refuses it.

// refused compiles each source, which must fail.
func refused(t *testing.T, srcs ...string) {
	t.Helper()
	for _, src := range srcs {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: compiled", src)
		}
	}
}

// refusedForms seeds FuzzCompile with what the refusal tests check.
var refusedForms = []string{
	"/RowSet/Row/ItemID", "//Quantity", "Row//Quantity", "Row[1]/ItemID/..", "./Row[1]", "Row[1]/*",
	"Row[1]/ItemID/text()", "node()", "@*", "Row[@num = '3']", "Row[1] | Row[2]", "1 | 2",
	"$rs[2]/ItemID", "($rs)[1]/ItemID", "(1 + 2)", "-(3 + 4)", "1 div 0", "10 mod 3", "2 * 3", "5 - 2",
	"1 < 2 and 2 < 3", "1 > 2 or 3 > 2", "'a' != 'a'", "3 >= 3", "last()", "count()", "count(1)",
	"position(1)", "sum(Row/Quantity)", "concat('a', 'b')", "not(true())", "$i < 5", "$x > 3",
}

func TestAbsolutePath(t *testing.T) { refused(t, "/RowSet/Row/ItemID", "/", "/Row[1]") }

func TestDescendant(t *testing.T) { refused(t, "//Quantity", "Row//Quantity", "$rs//Quantity") }

func TestParentAndSelf(t *testing.T) { refused(t, "Row[1]/ItemID/..", "./Row[1]", ".", "..") }

func TestWildcardAndText(t *testing.T) { refused(t, "Row[1]/*", "*", "Row[1]/ItemID/text()") }

func TestNodeTest(t *testing.T) { refused(t, "node()", "Row/node()") }

func TestAttributeWildcard(t *testing.T) { refused(t, "@*", "@missing", "Row[@num = '3']") }

func TestUnion(t *testing.T) { refused(t, "Row[1]/ItemID | Row[2]/ItemID") }

func TestUnionRequiresNodeSets(t *testing.T) { refused(t, "1 | 2") }

func TestFilterExpressionPredicates(t *testing.T) {
	refused(t, "$rs[2]/ItemID", "$rs[Quantity > 2][2]/ItemID", "($rs)[1]/ItemID", "$n[1]", "ora:f()[1]", "(1 + 2)")
}

func TestNegationAndDiv(t *testing.T) { refused(t, "-(3 + 4)", "-1", "1 div 0", "10 mod 3") }

func TestCoreFunctions(t *testing.T) {
	refused(t, "last()", "true()", "false()", "sum(Row/Quantity)", "string(12)", "number('3.5')", "boolean(1)",
		"not(1 = 1)", "concat('a', 'b', 'c')", "contains('workflow', 'flow')", "starts-with('workflow', 'work')",
		"substring('workflow', 5)", "substring-before('a=b', '=')", "substring-after('a=b', '=')",
		"string-length('four')", "normalize-space(' a ')", "translate('abc', 'abc', 'xyz')", "floor(2.7)",
		"ceiling(2.1)", "round(2.5)", "name(Row)", "local-name(Row)", "count()", "count(1)", "count($v)", "position(1)")
}

func TestNameFunctions(t *testing.T) { refused(t, "name(b)", "local-name(b)", "local-name(b[99])") }

func TestStringLengthAndStringOfContext(t *testing.T) {
	refused(t, "string-length()", "string()", "normalize-space()")
}
