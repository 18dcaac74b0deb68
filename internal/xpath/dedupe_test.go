package xpath

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wfsql/internal/xdm"
)

// The slow path of stepNodes: the step evaluator this package had before
// it, which builds a de-duplication set for every step, whatever the
// context.

func oracleEvalSteps(current []*xdm.Node, steps []step, ctx *Context) (Value, error) {
	for _, st := range steps {
		var next []*xdm.Node
		seen := map[*xdm.Node]bool{}
		for _, n := range current {
			for _, c := range n.Children {
				if c.Kind == xdm.ElementNode && c.Name == st.name && !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		var err error
		next, err = applyStepPredicates(next, st, ctx)
		if err != nil {
			return Value{}, err
		}
		current = next
	}
	return NodeSet(current...), nil
}

func randomDoc(rng *rand.Rand) (*xdm.Node, []*xdm.Node) {
	names := []string{"a", "a", "a", "b", "Row", "ns:a"}
	root := xdm.NewElement("RowSet")
	all := []*xdm.Node{root}
	var grow func(n *xdm.Node, depth int)
	grow = func(n *xdm.Node, depth int) {
		for i, kids := 0, 1+rng.Intn(4); i < kids; i++ {
			if rng.Intn(5) == 0 {
				n.AppendChild(xdm.NewText(fmt.Sprint(rng.Intn(3))))
				continue
			}
			c := n.Element(names[rng.Intn(len(names))])
			all = append(all, c)
			if depth < 3 {
				grow(c, depth+1)
			}
		}
	}
	grow(root, 0)
	return root, all
}

func randomPath(rng *rand.Rand) string {
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	var b strings.Builder
	b.WriteString(pick("", "$one/", "$many/", "$many/"))
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(pick("a", "a", "a", "a", "b", "Row", "ns:a"))
		if rng.Intn(3) == 0 {
			b.WriteString(pick("[1]", "[2]", "[1.5]", "[$pos]", "[a]", "[position() <= 2]", "[b = 1]", "[2 <= count(a)]"))
		}
	}
	return b.String()
}

// TestStepsMatchAlwaysDedupe: on random small documents and child paths
// with predicates, from single- and multi-node contexts (nested nodes
// included), a path evaluates to the same ordered node list as under the
// evaluator that de-duplicates every step.
func TestStepsMatchAlwaysDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	compared, nonEmpty, multi := 0, 0, 0
	for i := 0; i < 4000; i++ {
		root, all := randomDoc(rng)
		many := []*xdm.Node{}
		for _, n := range all { // document order, nested nodes included
			if rng.Intn(3) == 0 {
				many = append(many, n)
			}
		}
		inner := []*xdm.Node{root} // a path from a leaf selects nothing
		for _, n := range all[1:] {
			if len(n.ChildElements()) > 0 {
				inner = append(inner, n)
			}
		}
		ctx := &Context{
			Node: inner[rng.Intn(len(inner))], Position: 1,
			Vars: VarMap{
				"one":  NodeSet(inner[rng.Intn(len(inner))]),
				"many": NodeSet(many...),
				"pos":  Number(float64(1 + rng.Intn(3))),
			},
		}
		src := randomPath(rng)
		e, err := Compile(src)
		if err != nil {
			t.Fatalf("generated path %q does not compile: %v", src, err)
		}
		p, ok := e.root.(*pathExpr)
		if !ok {
			t.Fatalf("%q compiled to %T, not a path", src, e.root)
		}
		// The same path with its steps run by the always-dedupe evaluator.
		start := []*xdm.Node{ctx.Node}
		if p.base != nil {
			bv, err := p.base.evalNode(ctx)
			if err != nil {
				t.Fatal(err)
			}
			start = bv.Nodes
		}
		want, err := oracleEvalSteps(start, p.steps, ctx)
		got, gerr := e.Eval(ctx)
		if err != nil || gerr != nil {
			t.Fatalf("%q on %s: error %v, always-dedupe %v", src, root, gerr, err)
		}
		if got.Kind != KindNodeSet || !slices.Equal(got.Nodes, want.Nodes) {
			t.Fatalf("%q on %s from %s:\n got %v\nwant %v", src, root, ctx.Node, got.Nodes, want.Nodes)
		}
		compared++
		if len(want.Nodes) > 0 {
			nonEmpty++
		}
		if len(many) > 1 && strings.HasPrefix(src, "$many") {
			multi++
		}
	}
	if nonEmpty < compared/4 || multi < compared/10 {
		t.Fatalf("%d paths compared, %d non-empty, %d from a multi-node context: the generator lost its teeth",
			compared, nonEmpty, multi)
	}
}

// randomRowSet builds a RowSet of n children: mostly Row elements (some
// prefixed, each with an ItemID), mixed with other elements and text.
func randomRowSet(rng *rand.Rand, n int) *xdm.Node {
	root := xdm.NewElement("RowSet")
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			root.AppendChild(xdm.NewText("t"))
		case 1:
			root.Element("Other")
		default:
			row := root.Element([]string{"Row", "Row", "ns:Row"}[rng.Intn(3)])
			row.ElementWithText("ItemID", fmt.Sprint(i))
		}
	}
	return root
}

// TestPositionalAndCountedStepsMatchGeneral: a child step picked by a
// constant position and a counted last child step, from one context node,
// skip listing the siblings; on random RowSets and positions (0, 1, the
// last, out of range, negative, non-integer, NaN, a string, a node-set,
// position() = $pos) they select and count what the general step
// evaluator does.
func TestPositionalAndCountedStepsMatchGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	paths := []string{"Row[$pos]", "Row[$pos]/ItemID", "ns:Row[$pos]", "Row[1]", "Row[3]", "Row[position() = $pos]",
		"Row", "Row/ItemID", "Row[$pos]/ItemID[1]", "Other[$pos]", "Row[$str]", "Row[$set]"}
	for i := 0; i < 2000; i++ {
		set := randomRowSet(rng, rng.Intn(12))
		rows := len(set.ChildElements())
		pos := []Value{Number(0), Number(1), Number(float64(rows)), Number(float64(rows + 1)), Number(-1),
			Number(1.5), Number(2), Number(math.NaN()), String("2")}[rng.Intn(9)]
		many := []*xdm.Node{set, randomRowSet(rng, 3)}
		for _, vars := range []VarMap{
			{"set": NodeSet(set), "pos": pos, "str": String("1")},
			{"set": NodeSet(many...), "pos": pos, "str": String("1")},
		} {
			ctx := &Context{Node: set, Position: 1, Vars: vars}
			for _, path := range paths {
				e, err := Compile(path)
				if err != nil {
					t.Fatal(err)
				}
				want, werr := oracleEvalSteps(vars["set"].Nodes, e.root.(*pathExpr).steps, ctx)
				got, gerr := MustCompile("$set/" + path).Eval(ctx)
				n, nerr := MustCompile("count($set/" + path + ")").Eval(ctx)
				if errText(gerr) != errText(werr) || errText(nerr) != errText(werr) {
					t.Fatalf("%s with $pos=%v on %s: errors %v, %v, general %v", path, pos, set, gerr, nerr, werr)
				}
				if werr == nil && (!slices.Equal(got.Nodes, want.Nodes) || n.Num != float64(len(want.Nodes))) {
					t.Fatalf("%s with $pos=%v on %s:\n got %v (count %v)\nwant %v", path, pos, set, got.Nodes, n.Num, want.Nodes)
				}
			}
		}
	}
}

// TestCursorStepsAllocateIndependentlyOfTheSet: a cursor's per-row
// expressions allocate the same bytes over 1 000 rows as over 10.
func TestCursorStepsAllocateIndependentlyOfTheSet(t *testing.T) {
	perEval := func(src string, rows int) uint64 {
		set := xdm.NewElement("RowSet")
		for i := 0; i < rows; i++ {
			set.Element("Row").ElementWithText("ItemID", "x")
		}
		e, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Node: set, Position: 1, Vars: VarMap{"set": NodeSet(set), "pos": Number(5)}}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := e.Eval(ctx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, src := range []string{"$pos <= count($set/Row)", "$set/Row[$pos]/ItemID"} {
		if small, large := perEval(src, 10), perEval(src, 1000); large > small+64 {
			t.Errorf("%s allocates %d B per evaluation over 1 000 rows, %d over 10", src, large, small)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
