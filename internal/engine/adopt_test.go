package engine_test

import (
	"testing"

	"wfsql/internal/engine"
	"wfsql/internal/orasoa"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// lastResult passes extension calls through and remembers the document
// the last one returned, so a test can tell an adopted tree from a copy.
type lastResult struct {
	next engine.Functions
	doc  *xdm.Node
}

func (r *lastResult) CallFunction(in *engine.Instance, name string, args []xpath.Value) (xpath.Value, error) {
	v, err := r.next.CallFunction(in, name, args)
	r.doc = v.FirstNode()
	return v, err
}

// TestAssignAdoptsOnlyFreshTrees: a whole-variable assign keeps the tree
// ora:query-database just built, and copies every node another holder
// could observe a write through — a variable's document, what
// getVariableData returns, a path into a fresh result, a cursor's row.
func TestAssignAdoptsOnlyFreshTrees(t *testing.T) {
	db := sqldb.Open("adopt")
	db.MustExec(`CREATE TABLE Orders (ItemID VARCHAR, Quantity INTEGER)`)
	db.MustExec(`INSERT INTO Orders VALUES ('bolt', 15), ('nut', 3)`)
	funcs := &lastResult{next: orasoa.NewFunctions(db)}
	const query = `ora:query-database("SELECT ItemID, Quantity FROM Orders ORDER BY ItemID")`
	vars := []engine.VarDecl{
		{Name: "A", Kind: engine.XMLVar}, {Name: "B", Kind: engine.XMLVar}, {Name: "Cur", Kind: engine.XMLVar},
		{Name: "S", Kind: engine.ScalarVar}, {Name: "pos", Kind: engine.ScalarVar},
	}
	run := func(body ...engine.Activity) *engine.Instance {
		t.Helper()
		d, err := engine.New(nil).Deploy(&engine.Process{Name: "adopt", Variables: vars, Funcs: funcs,
			Body: engine.NewSequence("main", body...)})
		if err != nil {
			t.Fatal(err)
		}
		in, err := d.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	item := func(in *engine.Instance, v string) string {
		return rowset.Field(rowset.Row(in.MustVariable(v).Node(), 0), "ItemID")
	}
	update := func(v string) engine.Activity {
		return orasoa.NewBpelxAssign("upd").Copy("'changed'", v, "Row[1]/ItemID")
	}

	// A fresh result is adopted; a copy of the variable holding it is not.
	for _, upd := range []string{"A", "B"} {
		in := run(engine.NewAssign("q").Copy(query, "A").Copy("$A", "B"), update(upd))
		if in.MustVariable("A").Node() != funcs.doc {
			t.Fatal("the query result was copied, not adopted")
		}
		other := map[string]string{"A": "B", "B": "A"}[upd]
		if item(in, upd) != "changed" || item(in, other) != "bolt" {
			t.Fatalf("updating %s: A has %s, B has %s", upd, item(in, "A"), item(in, "B"))
		}
	}

	// getVariableData hands out the variable's own tree: never adopted.
	in := run(engine.NewAssign("q").Copy(query, "A").Copy("bpel:getVariableData('A')", "B"), update("B"))
	if in.MustVariable("B").Node() == in.MustVariable("A").Node() || item(in, "A") != "bolt" {
		t.Fatalf("getVariableData was adopted: A has %s", item(in, "A"))
	}

	// A path into a fresh result is not itself fresh.
	in = run(engine.NewAssign("q").Copy(query+"/Row", "B"))
	if row := funcs.doc.FirstChildElement("Row"); in.MustVariable("B").Node() == row || in.MustVariable("B").Node().Parent() != nil {
		t.Fatal("a row of the query result was adopted")
	}

	// A cursor's row is a detached copy: it cannot reach the set.
	var parents []*xdm.Node
	visit := engine.NewSnippet("visit", func(ctx *engine.Ctx) error {
		cur, err := ctx.Variable("Cur")
		if err == nil {
			parents = append(parents, cur.Node().Parent())
		}
		return err
	})
	run(engine.NewAssign("q").Copy(query, "A"), engine.CursorLoop("test", "cur", "A", "Cur", "pos", visit))
	if len(parents) != 2 || parents[0] != nil || parents[1] != nil {
		t.Fatalf("the cursor row's parent per row: %v", parents)
	}

	// A scalar target takes the string value.
	in = run(engine.NewAssign("q").Copy(query, "A").Copy("$A/Row[1]/ItemID", "S"))
	if s := in.MustVariable("S"); s.Kind() != engine.ScalarVar || s.String() != "bolt" {
		t.Fatalf("scalar target: kind %v, %q", s.Kind(), s.String())
	}
}
