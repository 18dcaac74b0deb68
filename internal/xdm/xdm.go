// Package xdm implements the XML data model used throughout the workflow
// reproductions: BPEL process variables, the proprietary XML RowSet
// representation shared by the IBM and Oracle layers, and the node sets the
// XPath engine (internal/xpath) evaluates over.
//
// The model is deliberately small: element nodes with attributes and
// children, and text nodes. Namespaces are carried as plain prefixed names
// ("ora:query-database" style), which matches how the surveyed products'
// documents are presented in the paper.
package xdm

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates node kinds.
type Kind int

// Node kinds.
const (
	ElementNode Kind = iota
	TextNode
)

// Attr is a single attribute. Attributes are kept in a slice to preserve
// document order deterministically.
type Attr struct {
	Name  string
	Value string
}

// Node is an XML element or text node.
type Node struct {
	Kind     Kind
	Name     string // element name; empty for text nodes
	Text     string // text content; only for text nodes
	Attrs    []Attr
	Children []*Node
	parent   *Node
}

// NewElement creates an element node.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText creates a text node.
func NewText(text string) *Node { return &Node{Kind: TextNode, Text: text} }

// Parent returns the node's parent, or nil for a root.
func (n *Node) Parent() *Node { return n.parent }

// AppendChild adds c as the last child of n and returns n for chaining.
func (n *Node) AppendChild(c *Node) *Node {
	c.parent = n
	n.Children = append(n.Children, c)
	return n
}

// RemoveChild removes the child c (by identity). It reports whether c was
// found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.parent = nil
			return true
		}
	}
	return false
}

// InsertChildAfter inserts newChild immediately after ref (a child of n).
// If ref is nil, newChild is inserted first.
func (n *Node) InsertChildAfter(ref, newChild *Node) error {
	newChild.parent = n
	if ref == nil {
		n.Children = append([]*Node{newChild}, n.Children...)
		return nil
	}
	for i, ch := range n.Children {
		if ch == ref {
			n.Children = append(n.Children[:i+1], append([]*Node{newChild}, n.Children[i+1:]...)...)
			return nil
		}
	}
	return fmt.Errorf("xdm: reference node %s is not a child of %s", ref.Name, n.Name)
}

// SetAttr sets (or replaces) an attribute.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetText replaces the node's children with a single text node.
func (n *Node) SetText(text string) *Node {
	for _, c := range n.Children {
		c.parent = nil
	}
	n.Children = n.Children[:0]
	n.AppendChild(NewText(text))
	return n
}

// TextContent returns the concatenated text of the node and its
// descendants (the XPath string-value of an element).
func (n *Node) TextContent() string {
	if n.Kind == TextNode {
		return n.Text
	}
	// Single-text-child elements (the overwhelmingly common shape) need
	// no builder.
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		return n.Children[0].Text
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == TextNode {
			b.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// Element creates, appends, and returns a child element (builder helper).
func (n *Node) Element(name string) *Node {
	c := NewElement(name)
	n.AppendChild(c)
	return c
}

// ElementWithText creates and appends a child element containing text and
// returns n for chaining.
func (n *Node) ElementWithText(name, text string) *Node {
	n.Element(name).SetText(text)
	return n
}

// ChildElements returns the element children of n (text nodes skipped).
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given name
// (or any element if name is ""), or nil.
func (n *Node) FirstChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && (name == "" || c.Name == name) {
			return c
		}
	}
	return nil
}

// ChildText returns the text content of the first child element with the
// given name, or "".
func (n *Node) ChildText(name string) string {
	if c := n.FirstChildElement(name); c != nil {
		return c.TextContent()
	}
	return ""
}

// Clone returns a deep copy of the node (detached from any parent), built
// in one Block.
func (n *Node) Clone() *Node {
	b := NewBlock(n.size())
	return b.copyOf(nil, n)
}

// size counts the subtree's nodes and attributes.
func (n *Node) size() (nodes, attrs int) {
	nodes, attrs = 1, len(n.Attrs)
	for _, c := range n.Children {
		cn, ca := c.size()
		nodes, attrs = nodes+cn, attrs+ca
	}
	return nodes, attrs
}

func (b *Block) copyOf(parent, src *Node) *Node {
	out := b.take(parent, src.Kind, src.Name, src.Text, len(src.Children), len(src.Attrs))
	out.Attrs = append(out.Attrs, src.Attrs...)
	for _, c := range src.Children {
		b.copyOf(out, c)
	}
	return out
}

// Block carves the nodes, child lists and attributes of one tree out of
// three slices sized up front: three allocations per tree instead of two
// or three per node. Each child list and attribute list is capped at what
// was reserved for it, so growing one node's list reallocates instead of
// overwriting its neighbour's. A node taken from a block keeps the whole
// block alive while anything references it.
type Block struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
}

// NewBlock reserves room for a tree of the given number of nodes (at
// least one) and attributes. Every node but the root is one child pointer.
func NewBlock(nodes, attrs int) Block {
	return Block{nodes: make([]Node, nodes), kids: make([]*Node, nodes-1), attrs: make([]Attr, attrs)}
}

// Element takes an element node with room for kids children and attrs
// attributes and appends it to parent (when not nil).
func (b *Block) Element(parent *Node, name string, kids, attrs int) *Node {
	return b.take(parent, ElementNode, name, "", kids, attrs)
}

// Text takes a text node and appends it to parent.
func (b *Block) Text(parent *Node, text string) *Node {
	return b.take(parent, TextNode, "", text, 0, 0)
}

func (b *Block) take(parent *Node, kind Kind, name, text string, kids, attrs int) *Node {
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	n.Kind, n.Name, n.Text = kind, name, text
	if kids > 0 {
		n.Children = b.kids[:0:kids]
		b.kids = b.kids[kids:]
	}
	if attrs > 0 {
		n.Attrs = b.attrs[:0:attrs]
		b.attrs = b.attrs[attrs:]
	}
	if parent != nil {
		parent.AppendChild(n)
	}
	return n
}

// ReplaceContent detaches n's children and gives n src's attributes and
// children instead, leaving src empty.
func (n *Node) ReplaceContent(src *Node) {
	for _, c := range n.Children {
		c.parent = nil
	}
	n.Attrs, n.Children = src.Attrs, src.Children
	src.Attrs, src.Children = nil, nil
	for _, c := range n.Children {
		c.parent = n
	}
}

// Root returns the topmost ancestor of n (n itself if detached).
func (n *Node) Root() *Node {
	r := n
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// Equal reports deep structural equality (names, attributes as sets,
// children in order, text).
func (n *Node) Equal(o *Node) bool {
	if n.Kind != o.Kind || n.Name != o.Name {
		return false
	}
	if n.Kind == TextNode {
		return n.Text == o.Text
	}
	if len(n.Attrs) != len(o.Attrs) {
		return false
	}
	na := append([]Attr(nil), n.Attrs...)
	oa := append([]Attr(nil), o.Attrs...)
	sort.Slice(na, func(i, j int) bool { return na[i].Name < na[j].Name })
	sort.Slice(oa, func(i, j int) bool { return oa[i].Name < oa[j].Name })
	for i := range na {
		if na[i] != oa[i] {
			return false
		}
	}
	nc, oc := n.significantChildren(), o.significantChildren()
	if len(nc) != len(oc) {
		return false
	}
	for i := range nc {
		if !nc[i].Equal(oc[i]) {
			return false
		}
	}
	return true
}

// significantChildren drops whitespace-only text nodes for comparison.
func (n *Node) significantChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == TextNode && strings.TrimSpace(c.Text) == "" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// String serializes the node as compact XML.
func (n *Node) String() string {
	var w Writer
	w.Grow(n.sizeHint())
	n.write(&w)
	return w.String()
}

// sizeHint estimates the serialized length so String can allocate its
// buffer once instead of growing through it.
func (n *Node) sizeHint() int {
	if n.Kind == TextNode {
		return len(n.Text) + 8
	}
	sz := 2*len(n.Name) + 5 // <name></name>
	for _, a := range n.Attrs {
		sz += len(a.Name) + len(a.Value) + 4
	}
	for _, c := range n.Children {
		sz += c.sizeHint()
	}
	return sz
}

// Indent serializes the node as indented XML.
func (n *Node) Indent() string {
	w := Writer{indent: true}
	n.write(&w)
	w.WriteByte('\n')
	return w.String()
}

func (n *Node) write(w *Writer) {
	if n.Kind == TextNode {
		w.Text(n.Text)
		return
	}
	w.Start(n.Name)
	for _, a := range n.Attrs {
		w.Attr(a.Name, a.Value)
	}
	for _, c := range n.Children {
		c.write(w)
	}
	w.End(n.Name)
}

// Writer streams XML into a buffer without building a tree: Start opens
// an element, Attr adds an attribute to the element just opened, Text
// and Int append character data, and End closes the innermost element —
// as "<name/>" when nothing was written into it. A Node serializes
// through the same calls, so a document streamed as its tree would be
// walked reads byte for byte like the tree's String. The zero value
// writes compact XML into the embedded Builder (Grow, String).
type Writer struct {
	strings.Builder
	open   bool   // a start tag awaits its '>' or "/>"
	indent bool   // Indent's layout: each element on its own line unless its parent holds only text
	elems  []bool // indented only: per open element, whether it holds an element
}

// Start opens an element.
func (w *Writer) Start(name string) {
	w.content()
	if w.indent {
		if d := len(w.elems); d > 0 {
			w.elems[d-1] = true
		}
		w.pad(len(w.elems))
		w.elems = append(w.elems, false)
	}
	w.WriteByte('<')
	w.WriteString(name)
	w.open = true
}

// Attr adds an attribute to the element Start just opened.
func (w *Writer) Attr(name, value string) {
	w.WriteByte(' ')
	w.WriteString(name)
	w.WriteString(`="`)
	xmlEscape(&w.Builder, value)
	w.WriteByte('"')
}

// Text appends escaped character data to the open element. Even empty
// text gives the element content: it closes as "<name></name>".
func (w *Writer) Text(s string) {
	w.content()
	xmlEscape(&w.Builder, s)
}

// Int appends i in decimal as character data, as Text(strconv.FormatInt(i,
// 10)) would, without building the string.
func (w *Writer) Int(i int64) {
	w.content()
	var digits [20]byte
	w.Write(strconv.AppendInt(digits[:0], i, 10))
}

// End closes the innermost open element, whose name is name.
func (w *Writer) End(name string) {
	var elems bool
	if w.indent {
		elems = w.elems[len(w.elems)-1]
		w.elems = w.elems[:len(w.elems)-1]
	}
	if w.open {
		w.WriteString("/>")
		w.open = false
		return
	}
	if elems {
		w.pad(len(w.elems))
	}
	w.WriteString("</")
	w.WriteString(name)
	w.WriteByte('>')
}

// content ends an open start tag before what goes inside the element.
func (w *Writer) content() {
	if w.open {
		w.WriteByte('>')
		w.open = false
	}
}

func (w *Writer) pad(depth int) {
	if w.Len() > 0 {
		w.WriteByte('\n')
	}
	for ; depth > 0; depth-- {
		w.WriteString("  ")
	}
}

func xmlEscape(b *strings.Builder, s string) {
	// Copy unescaped spans in bulk; all escapable characters are ASCII,
	// so a byte scan is UTF-8-safe and the common no-escape case is a
	// single WriteString.
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		default:
			continue
		}
		b.WriteString(s[start:i])
		b.WriteString(esc)
		start = i + 1
	}
	b.WriteString(s[start:])
}

// Parse parses an XML document into a Node tree and returns the root
// element. Whitespace-only text between elements is dropped.
func Parse(src string) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(src))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("xdm: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			if t.Name.Space != "" {
				// Preserve the raw prefix if one was written; encoding/xml
				// expands prefixes to URLs, so treat the space as a prefix
				// only when it contains no scheme separator.
				if !strings.Contains(t.Name.Space, "/") && !strings.Contains(t.Name.Space, ":") {
					name = t.Name.Space + ":" + t.Name.Local
				}
			}
			n := NewElement(name)
			for _, a := range t.Attr {
				an := a.Name.Local
				if a.Name.Space != "" && !strings.Contains(a.Name.Space, "/") && !strings.Contains(a.Name.Space, ":") {
					an = a.Name.Space + ":" + a.Name.Local
				}
				n.SetAttr(an, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xdm: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xdm: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if len(stack) > 0 && strings.TrimSpace(text) != "" {
				stack[len(stack)-1].AppendChild(NewText(text))
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xdm: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xdm: unclosed elements")
	}
	return root, nil
}

// MustParse parses XML and panics on error (for tests and fixtures).
func MustParse(src string) *Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}
