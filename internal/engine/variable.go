// Package engine implements a BPEL-style two-level workflow engine: the
// choreography layer (process models built from activities) over a
// function layer (services invoked through a wsbus.Bus). It is the
// execution substrate for the IBM BIS and Oracle SOA Suite product
// reproductions; Microsoft's Workflow Foundation, which is not BPEL-based,
// has its own runtime in internal/mswf.
//
// The engine supports the activity types the paper's examples rely on —
// sequence, while, assign (with XPath expressions), invoke and code
// snippets (the Java-snippet analog) — plus process variables holding XML
// documents or scalars, deployment with validation, and execution
// tracing. The product layers add their own activities (BIS's SQL,
// retrieve set and atomic SQL sequence, Oracle's bpelx assign).
package engine

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"wfsql/internal/rowset"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// VarKind discriminates process variable kinds.
type VarKind int

// Variable kinds: an XML document variable or a scalar (simple-type)
// variable.
const (
	XMLVar VarKind = iota
	ScalarVar
)

// Variable is a process variable instance. All accessors lock the
// variable, so a reader on another goroutine than the instance's never
// sees a torn value (last-writer-wins).
//
// A cursor's bind (CursorLoop) stores a row of the set variable's
// document without copying it: the current variable borrows the row and
// the set variable lends it. Node, the accessor writers use, is the one
// place a copy happens: a borrower copies its row before handing it out,
// and a lender has every borrower copy its row first. Replacing content
// (SetNode, SetString, the next bind) copies nothing. A writer calls Node
// for each write rather than keeping the document across activities.
type Variable struct {
	Name string

	mu     sync.Mutex
	kind   VarKind
	node   *xdm.Node
	scalar string

	// nodeSet caches the single-node node-set XPathValue hands out, so
	// every XPath read of an XML variable does not allocate a fresh
	// one-element slice. Maintained wherever node changes; evaluation
	// never mutates a node-set slice, so sharing it is safe.
	nodeSet []*xdm.Node

	// lender is set while node belongs to another variable's document
	// (or to a document that variable has since replaced): Node copies
	// it first. borrowers are the variables holding a row of node.
	lender    *Variable
	borrowers []*Variable
}

// NewXMLVariable creates an XML variable holding the given document.
func NewXMLVariable(name string, doc *xdm.Node) *Variable {
	v := &Variable{Name: name}
	v.setNode(doc)
	return v
}

// NewScalarVariable creates a scalar variable.
func NewScalarVariable(name, value string) *Variable {
	return &Variable{Name: name, kind: ScalarVar, scalar: value}
}

// Kind returns the variable's current kind.
func (v *Variable) Kind() VarKind {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.kind
}

// Node returns the XML document of an XML variable (nil for scalars),
// which the caller may write: a borrowed row is copied first and the
// variable owns the copy, so later calls return it; the borrowers of a
// lent document copy their rows first.
func (v *Variable) Node() *xdm.Node {
	v.mu.Lock()
	n, lender := v.node, v.lender
	if lender != nil {
		n = n.Clone()
		v.setNode(n)
		v.lender = nil
	}
	v.mu.Unlock()
	if lender != nil {
		lender.release(v)
	}
	for {
		v.mu.Lock()
		k := len(v.borrowers)
		if k == 0 {
			v.mu.Unlock()
			return n
		}
		b := v.borrowers[k-1]
		v.borrowers = v.borrowers[:k-1]
		v.mu.Unlock()
		b.own(v)
	}
}

// doc returns the XML document without copying anything: the engine's
// own readers (the cursor's read of its set, journal saves,
// getVariableData), which never write through it.
func (v *Variable) doc() *xdm.Node {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.node
}

// SetNode replaces the variable's content with an XML document.
func (v *Variable) SetNode(n *xdm.Node) {
	v.replace(func() { v.setNode(n) })
}

// String returns the variable's string value (text content for XML).
func (v *Variable) String() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.kind == XMLVar {
		if v.node == nil {
			return ""
		}
		return v.node.TextContent()
	}
	return v.scalar
}

// SetString replaces the variable's content with a scalar string.
func (v *Variable) SetString(s string) {
	v.replace(func() {
		v.kind = ScalarVar
		v.scalar = s
		v.node = nil
		v.nodeSet = nil
	})
}

// replace runs set under the lock and drops every borrow of the old
// content without copying: a borrower keeps its lender, so it still
// copies before a write, and the old document has no other writer.
func (v *Variable) replace(set func()) {
	v.mu.Lock()
	lender := v.lender
	v.lender = nil
	clear(v.borrowers)
	v.borrowers = v.borrowers[:0]
	set()
	v.mu.Unlock()
	if lender != nil {
		lender.release(v)
	}
}

// setNode stores an owned document; v.mu is held or v is unshared.
func (v *Variable) setNode(n *xdm.Node) {
	v.kind = XMLVar
	v.node = n
	v.scalar = ""
	if n != nil {
		v.nodeSet = []*xdm.Node{n}
	} else {
		v.nodeSet = nil
	}
}

// bindRow makes cur hold the i-th (0-based) Row of set's RowSet,
// borrowed, and reports whether there is one. A set that is itself
// borrowed, or a cursor bound into its own set, gets a copy.
func bindRow(set, cur *Variable, i int) bool {
	set.mu.Lock()
	var row *xdm.Node
	if set.node != nil {
		row = rowset.Row(set.node, i)
	}
	lend := row != nil && set.lender == nil && set != cur
	if lend && !slices.Contains(set.borrowers, cur) {
		set.borrowers = append(set.borrowers, cur)
	}
	set.mu.Unlock()
	switch {
	case row == nil:
		return false
	case !lend:
		cur.SetNode(row.Clone())
		return true
	}
	cur.mu.Lock()
	old := cur.lender
	clear(cur.borrowers)
	cur.borrowers = cur.borrowers[:0]
	cur.setNode(row)
	cur.lender = set
	cur.mu.Unlock()
	if old != nil && old != set {
		old.release(cur)
	}
	return true
}

// own makes v copy the row it borrows from lender, unless it has
// rebound since.
func (v *Variable) own(lender *Variable) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.lender == lender {
		v.setNode(v.node.Clone())
		v.lender = nil
	}
}

// release forgets borrower b.
func (v *Variable) release(b *Variable) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i := slices.Index(v.borrowers, b); i >= 0 {
		v.borrowers = slices.Delete(v.borrowers, i, i+1)
	}
}

// Int returns the variable's value as an integer.
func (v *Variable) Int() (int64, error) {
	s := v.String()
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("engine: variable %s is not an integer: %q", v.Name, s)
	}
	return i, nil
}

// XPathValue exposes the variable to XPath: XML variables become
// single-node node-sets, scalars become strings.
func (v *Variable) XPathValue() xpath.Value {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.kind == XMLVar {
		return xpath.Value{Kind: xpath.KindNodeSet, Nodes: v.nodeSet}
	}
	return xpath.String(v.scalar)
}

// VarDecl declares a process variable and its initial content.
type VarDecl struct {
	Name    string
	Kind    VarKind
	InitXML string // parsed at instantiation for XML variables; may be ""
	Init    string // initial scalar value
}
