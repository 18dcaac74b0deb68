package xpath

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

// rowSetDoc builds the XML RowSet shape the IBM and Oracle layers use.
func rowSetDoc() *xdm.Node {
	root := xdm.NewElement("RowSet")
	add := func(id int, item string, qty int) {
		row := root.Element("Row")
		row.SetAttr("num", fmt.Sprintf("%d", id))
		row.ElementWithText("ItemID", item)
		row.ElementWithText("Quantity", fmt.Sprintf("%d", qty))
	}
	add(1, "bolt", 15)
	add(2, "nut", 3)
	add(3, "screw", 2)
	return root
}

func evalOn(t *testing.T, doc *xdm.Node, expr string) Value {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	v, err := e.Eval(&Context{Node: doc, Position: 1})
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestChildSteps(t *testing.T) {
	doc := rowSetDoc()
	v := evalOn(t, doc, "Row")
	if len(v.Nodes) != 3 {
		t.Fatalf("Row count: %d", len(v.Nodes))
	}
	v = evalOn(t, doc, "Row/ItemID")
	if len(v.Nodes) != 3 || v.Nodes[0].TextContent() != "bolt" {
		t.Fatalf("Row/ItemID: %v", v.Nodes)
	}
}

func TestPositionalPredicate(t *testing.T) {
	doc := rowSetDoc()
	v := evalOn(t, doc, "Row[2]/ItemID")
	if v.AsString() != "nut" {
		t.Fatalf("Row[2]: %q", v.AsString())
	}
	v = evalOn(t, doc, "Row[2 <= position()]")
	if len(v.Nodes) != 2 {
		t.Fatalf("2<=position(): %d", len(v.Nodes))
	}
	// A number keeps a node only when it equals its position, so no node
	// is at 1.5: on the shortcut (one context node, a literal or a
	// variable) and on the general path alike.
	ctx := &Context{Node: doc, Position: 1, Vars: VarMap{"set": NodeSet(doc), "p": Number(1.5)}}
	for _, src := range []string{"Row[1.5]/ItemID", "$set/Row[1.5]/ItemID", "$set/Row[$p]/ItemID",
		"Row[ItemID][1.5]", "count($set/Row[$p])"} {
		v, err := MustCompile(src).Eval(ctx)
		if err != nil || len(v.Nodes) != 0 || v.Kind == KindNumber && v.Num != 0 {
			t.Errorf("%s selected %v (%v, count %v)", src, v.Nodes, err, v.Num)
		}
	}
}

func TestValuePredicate(t *testing.T) {
	doc := rowSetDoc()
	v := evalOn(t, doc, "Row[ItemID = 'nut']/Quantity")
	if v.AsNumber() != 3 {
		t.Fatalf("value predicate: %v", v.AsNumber())
	}
	v = evalOn(t, doc, "Row[3 <= Quantity]")
	if len(v.Nodes) != 2 {
		t.Fatalf("numeric predicate: %d", len(v.Nodes))
	}
}

// TestNonASCIINames: a name is read character by character, not byte by
// byte, so a column sqldb accepts and a RowSet holds — Größe — is
// addressable, as a step and as a variable.
func TestNonASCIINames(t *testing.T) {
	db := sqldb.Open("names")
	db.MustExec("CREATE TABLE Maße (ItemID VARCHAR, Größe INTEGER)")
	db.MustExec("INSERT INTO Maße VALUES ('bolt', 12), ('nut', 7)")
	set, err := rowset.FromResult(db.MustExec("SELECT ItemID, Größe FROM Maße ORDER BY ItemID"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Node: set, Position: 1, Vars: VarMap{"Größe": NodeSet(set), "ß": Number(2)}}
	for src, want := range map[string]string{
		"Row[1]/Größe": "12", "$Größe/Row[2]/Größe": "7", "$Größe/Row[$ß]/ItemID": "nut",
	} {
		e, err := Compile(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if v, err := e.Eval(ctx); err != nil || v.AsString() != want {
			t.Errorf("%s = %q (%v), want %q", src, v.AsString(), err, want)
		}
	}
	if _, err := Compile("Row/Größe ¶"); err == nil || !strings.Contains(err.Error(), `"¶"`) {
		t.Errorf("a stray character: %v, want it named whole", err)
	}
}

func TestVariables(t *testing.T) {
	doc := rowSetDoc()
	vars := VarMap{
		"ItemList": NodeSet(doc),
		"name":     String("bolt"),
		"limit":    Number(10),
	}
	e := MustCompile("$ItemList/Row[ItemID = $name]/Quantity")
	v, err := e.Eval(&Context{Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsNumber() != 15 {
		t.Fatalf("variable path: %v", v.AsNumber())
	}
	e = MustCompile("$limit + $limit + 1")
	v, err = e.Eval(&Context{Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsNumber() != 21 {
		t.Fatalf("variable arithmetic: %v", v.AsNumber())
	}
	if _, err := MustCompile("$missing").Eval(&Context{Vars: vars}); err == nil {
		t.Fatal("expected undefined variable error")
	}
}

func TestArithmeticAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		num  float64
	}{
		{"1 + 2 + 3", 6},
		{"2.5 + '1.5'", 4},
	}
	for _, c := range cases {
		v := evalOn(t, rowSetDoc(), c.expr)
		if v.AsNumber() != c.num {
			t.Errorf("%s: got %v, want %v", c.expr, v.AsNumber(), c.num)
		}
	}
	boolCases := []struct {
		expr string
		b    bool
	}{
		{"3 <= 2", false},
		{"2 <= 2", true},
		{"2 <= 3", true},
		{"'a' = 'a'", true},
		{"'a' = 'b'", false},
		{"1 + 1 = 2", true},
	}
	for _, c := range boolCases {
		v := evalOn(t, rowSetDoc(), c.expr)
		if v.AsBool() != c.b {
			t.Errorf("%s: got %v, want %v", c.expr, v.AsBool(), c.b)
		}
	}
	refused(t, "1 + 2 * 3", "(1 + 2) * 3", "-5 + 2", "5 - 2", "1 < 2 and 2 < 3", "1 > 2 or 3 > 2",
		"not(1 = 1)", "true()", "'a' != 'a'", "3 >= 3", "1 < 2", "3 > 2")
}

func TestNodeSetComparison(t *testing.T) {
	doc := rowSetDoc()
	// Existential semantics: some Quantity equals 3.
	if v := evalOn(t, doc, "Row/Quantity = 3"); !v.AsBool() {
		t.Error("nodeset = number")
	}
	if v := evalOn(t, doc, "Row/Quantity = 99"); v.AsBool() {
		t.Error("nodeset = absent number")
	}
	if v := evalOn(t, doc, "Row/ItemID = 'nut'"); !v.AsBool() {
		t.Error("nodeset = string")
	}
}

func TestConversionRules(t *testing.T) {
	if Number(2).AsString() != "2" {
		t.Error("integer formatting")
	}
	if Number(2.5).AsString() != "2.5" {
		t.Error("decimal formatting")
	}
	if !math.IsNaN(String("abc").AsNumber()) {
		t.Error("string->NaN")
	}
	if String("").AsBool() || !String("x").AsBool() {
		t.Error("string->bool")
	}
	if Boolean(true).AsNumber() != 1 || Boolean(false).AsNumber() != 0 {
		t.Error("bool->number")
	}
	if NodeSet().AsBool() {
		t.Error("empty nodeset is false")
	}
	empty := NodeSet()
	if empty.AsString() != "" {
		t.Error("empty nodeset string")
	}
	if Boolean(true).AsString() != "true" || Boolean(false).AsString() != "false" {
		t.Error("bool->string")
	}
}

// extFuncs is a test FunctionResolver standing in for the Oracle layer.
type extFuncs struct{ calls []string }

func (f *extFuncs) CallFunction(name string, args []Value) (Value, error) {
	f.calls = append(f.calls, name)
	switch name {
	case "ora:double":
		return Number(args[0].AsNumber() * 2), nil
	case "test:join":
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.AsString()
		}
		return String(strings.Join(parts, ",")), nil
	}
	return Value{}, fmt.Errorf("unknown extension function %s", name)
}

func TestExtensionFunctions(t *testing.T) {
	fr := &extFuncs{}
	e := MustCompile("ora:double(21)")
	v, err := e.Eval(&Context{Funcs: fr})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsNumber() != 42 {
		t.Fatalf("extension result: %v", v.AsNumber())
	}
	e = MustCompile("test:join('a', 'b', 3)")
	v, err = e.Eval(&Context{Funcs: fr})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsString() != "a,b,3" {
		t.Fatalf("extension join: %v", v.AsString())
	}
	if len(fr.calls) != 2 {
		t.Fatalf("calls: %v", fr.calls)
	}
	// No resolver -> error.
	if _, err := MustCompile("ora:double(1)").Eval(&Context{}); err == nil {
		t.Fatal("expected resolver error")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"Row[",
		"Row]",
		"$",
		"'unterminated",
		"foo(",
		"1 +",
		"///",
		"Row/ItemID/",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestUnknownFunction(t *testing.T) {
	refused(t, "no-such-fn(1)", "count()", "count(Row, Row)", "position(1)")
	if v := evalOn(t, rowSetDoc(), "count(Row) + count(Row/ItemID)"); v.AsNumber() != 6 {
		t.Fatalf("count: %v", v.AsNumber())
	}
	if _, err := MustCompile("count('a'/b)").Eval(&Context{}); err == nil {
		t.Fatal("count of a path over a string must error")
	}
}

func TestPathFromVariableWithPredicates(t *testing.T) {
	doc := rowSetDoc()
	vars := VarMap{"rs": NodeSet(doc)}
	e := MustCompile("$rs/Row[position() = 2]/Quantity")
	v, err := e.Eval(&Context{Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsNumber() != 3 {
		t.Fatalf("got %v", v.AsNumber())
	}
}

// TestPrefixedElementMatching: a name test matches the element's whole
// name, prefix included; no issuer's documents carry prefixes.
func TestPrefixedElementMatching(t *testing.T) {
	doc := xdm.MustParse(`<ns1:RowSet><ns1:Row><ns1:Q>5</ns1:Q></ns1:Row></ns1:RowSet>`)
	if v := evalOn(t, doc, "ns1:Row/ns1:Q"); v.AsNumber() != 5 {
		t.Fatalf("prefixed names: %v", v)
	}
	if v := evalOn(t, doc, "Row/Q"); len(v.Nodes) != 0 {
		t.Fatalf("unprefixed test matched prefixed elements: %v", v.Nodes)
	}
}

func TestMixedTypeComparisons(t *testing.T) {
	doc := rowSetDoc()
	cases := []struct {
		expr string
		want bool
	}{
		// nodeset vs boolean: nodeset converts to boolean.
		{"Row = 1 <= 2", true},
		{"Row[99] = 1 <= 2", false},
		{"Row[99] = 2 <= 1", true},
		{"1 <= 2 <= Row[99]", false},
		{"2 <= 1 <= Row[99]", true},
		{"1 <= 2 <= Row", true},
		{"1 <= 2 <= 0.5", false}, // no node-set: booleans compare as numbers
		// number vs string.
		{"3 = '3'", true},
		{"3 = '4'", false},
		// boolean vs number.
		{"1 <= 2 = 1", true},
		{"2 <= 1 = 0", true},
		// relational with nodesets on the right.
		{"3 <= Row/Quantity", true},
		{"100 <= Row/Quantity", false},
		// nodeset vs nodeset relational.
		{"Row[2]/Quantity <= Row[1]/Quantity", true},
		{"Row[1]/Quantity <= Row[2]/Quantity", false},
	}
	for _, c := range cases {
		v := evalOn(t, doc, c.expr)
		if v.AsBool() != c.want {
			t.Errorf("%s: got %v, want %v", c.expr, v.AsBool(), c.want)
		}
	}
}

func TestExprSource(t *testing.T) {
	e := MustCompile("$a/b[1]")
	if e.Source() != "$a/b[1]" {
		t.Fatalf("Source: %q", e.Source())
	}
}

func TestFirstNode(t *testing.T) {
	doc := rowSetDoc()
	if NodeSet(doc).FirstNode() != doc {
		t.Fatal("FirstNode on nodeset")
	}
	if NodeSet().FirstNode() != nil || String("x").FirstNode() != nil {
		t.Fatal("FirstNode on empty/non-nodeset")
	}
}
