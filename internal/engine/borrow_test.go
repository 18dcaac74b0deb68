package engine_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/orasoa"
	"wfsql/internal/rowset"
	"wfsql/internal/xdm"
)

// This file checks the cursor's borrowed binds against a model that
// copies the row at every bind: a real instance binds through
// CursorLoop's bind snippet, the model instance stores row.Clone(), both
// run the same steps, and after every step the set, the current row and a
// third variable must serialize alike.

const borrowSet = `<RowSet><Row><F1>a</F1><F2>b</F2><F3>c</F3></Row><Row><F1>d</F1><F2>e</F2></Row>` +
	`<Row><F1>f</F1><F2>g</F2><F3>h</F3></Row><Row><F1>i</F1></Row></RowSet>`

// borrowSteps is what a step can do: its name, and its effect on one
// instance given a small argument. Activities run directly on the
// instance's Ctx, outside any span.
var borrowSteps = []struct {
	name string
	run  func(ctx *engine.Ctx, arg int) error
}{
	{"rebind", nil}, // bind: CursorLoop's snippet or the model's copy
	{"assign to-query on the row", func(ctx *engine.Ctx, arg int) error {
		return engine.NewAssign("a").CopyTo(fmt.Sprintf("'r%d'", arg), "cur", "F1").Execute(ctx)
	}},
	{"bpelx copy on the row", func(ctx *engine.Ctx, arg int) error {
		return orasoa.NewBpelxAssign("b").Copy(fmt.Sprintf("'x%d'", arg), "cur", "F2").Execute(ctx)
	}},
	{"bpelx remove on the row", func(ctx *engine.Ctx, arg int) error {
		return orasoa.NewBpelxAssign("b").Remove("cur", "F3").Execute(ctx)
	}},
	{"Node write of the row", func(ctx *engine.Ctx, arg int) error {
		n := ctx.Inst.MustVariable("cur").Node()
		if n == nil {
			return fmt.Errorf("no row")
		}
		rowset.SetField(n, "F3", fmt.Sprintf("n%d", arg))
		return nil
	}},
	{"Node write of the set", func(ctx *engine.Ctx, arg int) error {
		row := rowset.Row(ctx.Inst.MustVariable("set").Node(), arg%5)
		if row == nil {
			return fmt.Errorf("no row")
		}
		rowset.SetField(row, "F1", fmt.Sprintf("s%d", arg))
		return nil
	}},
	{"InsertTuple", func(ctx *engine.Ctx, arg int) error {
		return bis.InsertTuple(ctx, "set", []string{"F1", "F2"}, []string{fmt.Sprintf("i%d", arg), "new"})
	}},
	{"DeleteTuple", func(ctx *engine.Ctx, arg int) error {
		return bis.DeleteTuple(ctx, "set", arg%5)
	}},
	{"assign from the row into the set", func(ctx *engine.Ctx, arg int) error {
		return engine.NewAssign("a").CopyTo("$cur/F1", "set", fmt.Sprintf("Row[%d]/F2", arg%5+1)).Execute(ctx)
	}},
	{"bpelx insert of the row into the set", func(ctx *engine.Ctx, arg int) error {
		return orasoa.NewBpelxAssign("b").InsertAfter("$cur", "set", fmt.Sprintf("Row[%d]", arg%5+1)).Execute(ctx)
	}},
	{"bpelx remove from the set", func(ctx *engine.Ctx, arg int) error {
		return orasoa.NewBpelxAssign("b").Remove("set", fmt.Sprintf("Row[%d]", arg%5+1)).Execute(ctx)
	}},
	{"journal save and restore", func(ctx *engine.Ctx, arg int) error {
		memo, err := engine.SaveVariables(ctx, "set", "cur", "other")
		if err != nil {
			return err
		}
		return engine.RestoreVariables(ctx, memo)
	}},
	{"replace the set", func(ctx *engine.Ctx, arg int) error {
		return ctx.SetNode("set", xdm.MustParse(borrowSet))
	}},
	{"replace the row with a scalar", func(ctx *engine.Ctx, arg int) error {
		return ctx.SetScalar("cur", fmt.Sprint(arg))
	}},
	{"whole-variable assign of the row", func(ctx *engine.Ctx, arg int) error {
		return engine.NewAssign("a").Copy("$cur", "other").Execute(ctx)
	}},
	{"Node write of the copy", func(ctx *engine.Ctx, arg int) error {
		n := ctx.Inst.MustVariable("other").Node()
		if n == nil {
			return fmt.Errorf("no copy")
		}
		rowset.SetField(n, "F1", fmt.Sprintf("o%d", arg))
		return nil
	}},
}

// borrowPair is a real instance and its clone-on-bind model.
type borrowPair struct {
	real, model *engine.Ctx
	bind        engine.Activity
}

func newBorrowPair(t testing.TB) *borrowPair {
	loop := engine.CursorLoop("test", "c", "set", "cur", "pos", &engine.Empty{ActivityName: "body"})
	d, err := engine.New(nil).Deploy(&engine.Process{Name: "borrow", Body: loop, Variables: []engine.VarDecl{
		{Name: "set", Kind: engine.XMLVar, InitXML: borrowSet},
		{Name: "cur", Kind: engine.XMLVar}, {Name: "other", Kind: engine.XMLVar},
		{Name: "pos", Kind: engine.ScalarVar, Init: "1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := func() *engine.Ctx {
		in, err := d.NewInstance(nil)
		if err != nil {
			t.Fatal(err)
		}
		return &engine.Ctx{Inst: in, Engine: d.Engine}
	}
	// CursorLoop is init, then while(iteration(bind, body, advance)).
	iteration := loop.(*engine.Sequence).Children[1].(*engine.While).Body.(*engine.Sequence)
	return &borrowPair{real: ctx(), model: ctx(), bind: iteration.Children[0]}
}

// step runs step op with arg on both instances and fails t if they
// disagree on the outcome or on any variable afterwards.
func (p *borrowPair) step(t testing.TB, op, arg int, trail []string) []string {
	s := borrowSteps[op]
	trail = append(trail, fmt.Sprintf("%s(%d)", s.name, arg))
	var errReal, errModel error
	if s.run == nil {
		pos := fmt.Sprint(arg%6 + 1)
		p.real.SetScalar("pos", pos)
		p.model.SetScalar("pos", pos)
		errReal = p.bind.Execute(p.real)
		errModel = func() error {
			set := p.model.Inst.MustVariable("set").Node()
			if set == nil {
				return fmt.Errorf("no set")
			}
			row := rowset.Row(set, arg%6)
			if row == nil {
				return fmt.Errorf("out of range")
			}
			return p.model.SetNode("cur", row.Clone())
		}()
	} else {
		errReal, errModel = s.run(p.real, arg), s.run(p.model, arg)
	}
	if (errReal == nil) != (errModel == nil) {
		t.Fatalf("after %v: borrowed binds err %v, copied binds err %v", trail, errReal, errModel)
	}
	for _, name := range []string{"set", "cur", "other"} {
		if got, want := serialized(p.real, name), serialized(p.model, name); got != want {
			t.Fatalf("after %v: %s is\n%s\nwith borrowed binds, want\n%s", trail, name, got, want)
		}
	}
	return trail
}

// serialized reads a variable without Node, which would copy a borrowed
// row and so hide the difference under test.
func serialized(ctx *engine.Ctx, name string) string {
	x := ctx.Inst.MustVariable(name).XPathValue()
	if n := x.FirstNode(); n != nil {
		return n.String()
	}
	return "scalar " + x.AsString()
}

// TestBorrowedBindsMatchCopiedBinds: 300 seeded sequences of 40 steps —
// binds, writes of the row and of the set, rebinds, journal saves and
// restores, replacements — leave every variable as binds that copy the
// row do.
func TestBorrowedBindsMatchCopiedBinds(t *testing.T) {
	for seed := range uint64(300) {
		r := rand.New(rand.NewPCG(seed, 50))
		p := newBorrowPair(t)
		var trail []string
		for range 40 {
			trail = p.step(t, r.IntN(len(borrowSteps)), r.IntN(60), trail)
		}
	}
}

// TestNodeCopiesABorrowedRowOnce: the first Node() after a bind copies
// the row and the variable owns the copy, so a second Node() returns the
// same node; a to-query assign on a bound row (which reads Node() twice)
// allocates as much as one Node() copy followed by the same assign.
func TestNodeCopiesABorrowedRowOnce(t *testing.T) {
	p := newBorrowPair(t)
	ctx := p.real
	cur := ctx.Inst.MustVariable("cur")
	bind := func() {
		if err := p.bind.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	bind()
	row := rowset.Row(ctx.Inst.MustVariable("set").XPathValue().FirstNode(), 0)
	if cur.XPathValue().FirstNode() != row {
		t.Fatal("the bind copied the row")
	}
	first := cur.Node()
	if first == row {
		t.Fatal("Node() handed out the borrowed row")
	}
	if again := cur.Node(); again != first {
		t.Fatalf("second Node() returned %p, want the first copy %p", again, first)
	}
	assign := engine.NewAssign("a").CopyTo("'w'", "cur", "F1")
	write := func() {
		if err := assign.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	onBound := testing.AllocsPerRun(100, func() { bind(); write() })
	onCopy := testing.AllocsPerRun(100, func() { bind(); cur.Node(); write() })
	if onBound != onCopy {
		t.Fatalf("bind + assign allocates %v objects, bind + Node() + assign %v: the assign copies the row more than once", onBound, onCopy)
	}
}

// TestHandedOutNodeSetsKeepTheirBind: a node-set XPathValue handed out
// before a bind or a replacement still holds the node it was handed out
// with, and a bind allocates nothing.
func TestHandedOutNodeSetsKeepTheirBind(t *testing.T) {
	p := newBorrowPair(t)
	ctx := p.real
	cur, set := ctx.Inst.MustVariable("cur"), ctx.Inst.MustVariable("set")
	type handed struct {
		got  []*xdm.Node
		want *xdm.Node
	}
	var kept []handed
	for i := range 12 {
		if i%4 == 3 {
			doc := xdm.MustParse(fmt.Sprintf("<Row><F1>n%d</F1></Row>", i))
			cur.SetNode(doc)
			kept = append(kept, handed{cur.XPathValue().Nodes, doc})
			continue
		}
		ctx.SetScalar("pos", fmt.Sprint(i%4+1))
		if err := p.bind.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		row := rowset.Row(set.XPathValue().FirstNode(), i%4)
		if got := testing.AllocsPerRun(1, func() { _ = p.bind.Execute(ctx) }); got != 0 {
			t.Fatalf("rebinding row %d allocated %v objects", i%4, got)
		}
		kept = append(kept, handed{cur.XPathValue().Nodes, row})
	}
	for i, h := range kept {
		if len(h.got) != 1 || h.got[0] != h.want {
			t.Errorf("node-set %d handed out as %v now holds %v", i, h.want, h.got)
		}
	}
}

// FuzzVariableBorrow runs arbitrary step sequences, two bytes a step, on
// borrowed binds and on the clone-on-bind model.
func FuzzVariableBorrow(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 5, 0, 4, 3})
	f.Add([]byte{0, 1, 8, 1, 9, 0, 0, 1, 12, 0, 4, 2})
	f.Add([]byte{0, 3, 14, 0, 15, 1, 0, 3, 6, 0, 7, 3, 11, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newBorrowPair(t)
		var trail []string
		for i := 0; i+1 < len(data) && i < 200; i += 2 {
			trail = p.step(t, int(data[i])%len(borrowSteps), int(data[i+1]), trail)
		}
	})
}
