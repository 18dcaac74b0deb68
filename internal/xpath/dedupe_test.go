package xpath

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
		add := func(n *xdm.Node) {
			if !seen[n] {
				seen[n] = true
				next = append(next, n)
			}
		}
		for _, n := range current {
			switch st.axis {
			case axisChild:
				for _, c := range n.Children {
					if c.Kind == xdm.ElementNode && nameMatches(c, st.name) {
						add(c)
					}
				}
			case axisDescendant:
				var walk func(*xdm.Node)
				walk = func(m *xdm.Node) {
					for _, c := range m.Children {
						if c.Kind == xdm.ElementNode {
							if nameMatches(c, st.name) {
								add(c)
							}
							walk(c)
						}
					}
				}
				if nameMatches(n, st.name) {
					add(n)
				}
				walk(n)
			case axisSelf:
				add(n)
			case axisParent:
				if pn := n.Parent(); pn != nil {
					add(pn)
				}
			case axisAttribute:
				if st.name == "*" {
					for _, a := range n.Attrs {
						add(attrNode(a.Name, a.Value))
					}
				} else if v, ok := n.Attr(st.name); ok {
					add(attrNode(st.name, v))
				}
			case axisText:
				for _, c := range n.Children {
					if c.Kind == xdm.TextNode {
						add(c)
					}
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

// sameNodes compares two node lists in order. Attribute steps mint a
// fresh synthetic node per evaluation, so those compare by name and value;
// everything else is the document's own node and compares by identity.
func sameNodes(a, b []*xdm.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		synthetic := a[i].Kind == xdm.TextNode && a[i].Parent() == nil && b[i].Kind == xdm.TextNode && b[i].Parent() == nil
		if !synthetic || a[i].Name != b[i].Name || a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

func randomDoc(rng *rand.Rand) (*xdm.Node, []*xdm.Node) {
	names := []string{"a", "a", "b", "Row", "ns:a"}
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
			if rng.Intn(2) == 0 {
				c.SetAttr("num", fmt.Sprint(i+1))
			}
			if rng.Intn(4) == 0 {
				c.SetAttr("id", "x")
			}
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
	b.WriteString(pick("", "", "/", "//", "$one/", "$one//", "$many/", "$many/", "$many//"))
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if i > 0 {
			b.WriteString(pick("/", "/", "//"))
		}
		st := pick("a", "a", "b", "Row", "*", "*", "*", "..", "..", ".", "@*", "@num", "text()")
		b.WriteString(st)
		if st != ".." && st != "." && rng.Intn(3) == 0 {
			b.WriteString(pick("[1]", "[2]", "[last()]", "[$pos]", "[@num]", "[a]", "[position() < 3]", "[../b]", "[count(*) > 1]"))
		}
	}
	return b.String()
}

// TestStepsMatchAlwaysDedupe: on random small documents and paths mixing
// /, //, .., @*, text() and predicates, from single- and multi-node
// contexts, a path evaluates to the same ordered node list as under the
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
		ctx := &Context{
			Node: all[rng.Intn(len(all))], Position: 1, Size: 1,
			Vars: VarMap{
				"one":  NodeSet(all[rng.Intn(len(all))]),
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
		start, steps := []*xdm.Node{ctx.Node}, p.steps
		switch {
		case p.base != nil:
			bv, err := p.base.evalNode(ctx)
			if err != nil {
				t.Fatal(err)
			}
			start = bv.Nodes
		case p.absolute:
			// The first child step matches against the root element itself.
			if start[0] = root; steps[0].axis == axisChild {
				if !nameMatches(root, steps[0].name) {
					start = nil
				}
				if start, err = applyStepPredicates(start, steps[0], ctx); err != nil {
					t.Fatal(err)
				}
				steps = steps[1:]
			}
		}
		want, err := oracleEvalSteps(start, steps, ctx)
		got, gerr := e.Eval(ctx)
		if err != nil || gerr != nil {
			t.Fatalf("%q on %s: error %v, always-dedupe %v", src, root, gerr, err)
		}
		if got.Kind != KindNodeSet || !sameNodes(got.Nodes, want.Nodes) {
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
// last()) they select and count what the general step evaluator does.
func TestPositionalAndCountedStepsMatchGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	paths := []string{"Row[$pos]", "Row[$pos]/ItemID", "*[$pos]", "Row[1]", "Row[3]", "Row[last()]",
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
			ctx := &Context{Node: set, Position: 1, Size: 1, Vars: vars}
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
				if werr == nil && (!sameNodes(got.Nodes, want.Nodes) || n.Num != float64(len(want.Nodes))) {
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
		ctx := &Context{Node: set, Position: 1, Size: 1, Vars: VarMap{"set": NodeSet(set), "pos": Number(5)}}
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
