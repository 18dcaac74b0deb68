package xdm

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// cloneEach is the per-node deep copy Clone replaced: the reference the
// block clone is checked against.
func cloneEach(n *Node) *Node {
	out := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	out.Attrs = append([]Attr(nil), n.Attrs...)
	if len(n.Children) > 0 {
		out.Children = make([]*Node, 0, len(n.Children))
	}
	for _, c := range n.Children {
		out.AppendChild(cloneEach(c))
	}
	return out
}

// randomTree builds a tree of empty, text-only and mixed-content elements
// with attributes.
func randomTree(rng *rand.Rand, depth int) *Node {
	n := NewElement("e" + strconv.Itoa(rng.Intn(5)))
	for i := rng.Intn(3); i > 0; i-- {
		n.SetAttr("a"+strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(100)))
	}
	switch rng.Intn(4) {
	case 0: // empty
	case 1:
		n.AppendChild(NewText("t" + strconv.Itoa(rng.Intn(100))))
	default:
		for i := rng.Intn(4) + 1; i > 0; i-- {
			if depth > 0 && rng.Intn(3) > 0 {
				n.AppendChild(randomTree(rng, depth-1))
			} else {
				n.AppendChild(NewText("m" + strconv.Itoa(rng.Intn(100))))
			}
		}
	}
	return n
}

// all lists the subtree's nodes in document order.
func all(n *Node) []*Node {
	out := []*Node{n}
	for _, c := range n.Children {
		out = append(out, all(c)...)
	}
	return out
}

// nodeState is everything a node owns directly.
type nodeState struct {
	kind       Kind
	name, text string
	attrs      []Attr
	kids       []*Node
	parent     *Node
}

func stateOf(n *Node) nodeState {
	return nodeState{n.Kind, n.Name, n.Text, slices.Clone(n.Attrs), slices.Clone(n.Children), n.parent}
}

func (s nodeState) equal(o nodeState) bool {
	return s.kind == o.kind && s.name == o.name && s.text == o.text &&
		slices.Equal(s.attrs, o.attrs) && slices.Equal(s.kids, o.kids) && s.parent == o.parent
}

// sameShape checks that a and b have equal own fields and that every
// node's parent is the counterpart of the other tree's.
func sameShape(t *testing.T, a, b, pa, pb *Node) {
	t.Helper()
	if a.Parent() != pa || b.Parent() != pb {
		t.Fatalf("parent mismatch at %s", a.Name)
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text || !slices.Equal(a.Attrs, b.Attrs) || len(a.Children) != len(b.Children) {
		t.Fatalf("node mismatch: %s vs %s", a, b)
	}
	for i := range a.Children {
		sameShape(t, a.Children[i], b.Children[i], a, b)
	}
}

// mutate applies one random mutation to an element of nodes and returns
// the nodes whose own state it changed.
func mutate(rng *rand.Rand, nodes []*Node) []*Node {
	var n *Node
	for n == nil || n.Kind != ElementNode {
		n = nodes[rng.Intn(len(nodes))]
	}
	touched := []*Node{n}
	switch rng.Intn(5) {
	case 0:
		n.AppendChild(NewElement("appended"))
	case 1:
		touched = append(touched, n.Children...)
		n.SetText("set")
	case 2:
		n.SetAttr("a"+strconv.Itoa(rng.Intn(6)), "changed")
	case 3:
		if len(n.Children) > 0 {
			c := n.Children[rng.Intn(len(n.Children))]
			n.RemoveChild(c)
			touched = append(touched, c)
		}
	case 4:
		var ref *Node
		if len(n.Children) > 0 {
			ref = n.Children[rng.Intn(len(n.Children))]
		}
		if err := n.InsertChildAfter(ref, NewElement("inserted")); err != nil {
			panic(err)
		}
	}
	return touched
}

// TestBlockCloneMatchesCloneEach: a block clone equals the per-node clone
// node for node, parents included, and mutating it changes neither the
// source nor any node of the block the mutation did not touch — which
// fails if a child or attribute list is cut without its cap.
func TestBlockCloneMatchesCloneEach(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 2000; i++ {
		src := randomTree(rng, 4)
		before := src.String()
		block, each := src.Clone(), cloneEach(src)
		if block.String() != each.String() || !block.Equal(each) || !block.Equal(src) {
			t.Fatalf("tree %d: block clone %s, per-node clone %s", i, block, each)
		}
		sameShape(t, block, each, nil, nil)

		nodes := all(block)
		states := make(map[*Node]nodeState, len(nodes))
		for _, n := range nodes {
			states[n] = stateOf(n)
		}
		touched := map[*Node]bool{}
		for m := 0; m < 20; m++ {
			for _, n := range mutate(rng, nodes) {
				touched[n] = true
			}
		}
		if src.String() != before {
			t.Fatalf("tree %d: mutating the clone changed the source:\n%s\n%s", i, before, src)
		}
		for _, n := range nodes {
			if !touched[n] && !states[n].equal(stateOf(n)) {
				t.Fatalf("tree %d: untouched node %s changed", i, n.Name)
			}
		}
	}
}

// FuzzClone: whatever Parse accepts clones to an equal tree, and a
// mutation of every element of the clone leaves the source as it was.
func FuzzClone(f *testing.F) {
	f.Add(`<RowSet><Row num="1"><ItemID>bolt</ItemID><Quantity>15</Quantity></Row><Row num="2"><ItemID>nut</ItemID><Quantity null="true"/></Row></RowSet>`)
	f.Add(`<a x="1" y="2">one<b>two</b>three<c/></a>`)
	f.Add(`<xsql:page><xsql:dml>INSERT INTO t VALUES ({@a})</xsql:dml></xsql:page>`)
	f.Fuzz(func(t *testing.T, data string) {
		src, err := Parse(data)
		if err != nil {
			return
		}
		before := src.String()
		cl := src.Clone()
		if cl.String() != before || !cl.Equal(src) {
			t.Fatalf("clone %s of %s", cl, before)
		}
		for _, n := range all(cl) {
			if n.Kind == ElementNode {
				n.SetAttr("fz", "1")
				n.AppendChild(NewElement("fz"))
			}
		}
		if src.String() != before {
			t.Fatalf("mutating the clone changed the source:\n%s\n%s", before, src)
		}
	})
}

// writeTree is the recursive serializer Node.write replaced when it moved
// onto Writer: the reference String and Indent are checked against.
func writeTree(b *strings.Builder, n *Node, indent, depth int) {
	pad := func(d int) {
		if indent >= 0 {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			b.WriteString(strings.Repeat("  ", d))
		}
	}
	if n.Kind == TextNode {
		xmlEscape(b, n.Text)
		return
	}
	pad(depth)
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteString(" " + a.Name + `="`)
		xmlEscape(b, a.Value)
		b.WriteByte('"')
	}
	if len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	onlyText := true
	for _, c := range n.Children {
		onlyText = onlyText && c.Kind == TextNode
	}
	for _, c := range n.Children {
		if onlyText {
			writeTree(b, c, -1, depth+1)
		} else {
			writeTree(b, c, indent, depth+1)
		}
	}
	if !onlyText {
		pad(depth)
	}
	b.WriteString("</" + n.Name + ">")
}

// TestWriterMatchesTreeWrite: String and Indent, which walk a tree through
// Writer, write what the recursive serializer wrote — compact and
// indented, for empty, text-only and mixed-content elements, escaped
// text and attributes and an empty text node.
func TestWriterMatchesTreeWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := randomTree(rng, 4)
		if i%3 == 0 {
			n.SetAttr("q", `<"&'>`)
			n.AppendChild(NewText(""))
			n.Element("z").SetText("é & <x>")
		}
		var compact, indented strings.Builder
		writeTree(&compact, n, -1, 0)
		writeTree(&indented, n, 0, 0)
		if got, want := n.String(), compact.String(); got != want {
			t.Fatalf("tree %d: String\n got %s\nwant %s", i, got, want)
		}
		if got, want := n.Indent(), indented.String()+"\n"; got != want {
			t.Fatalf("tree %d: Indent\n got %q\nwant %q", i, got, want)
		}
	}
}
