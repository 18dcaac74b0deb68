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
	"strconv"
	"sync"

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
}

// NewXMLVariable creates an XML variable holding the given document.
func NewXMLVariable(name string, doc *xdm.Node) *Variable {
	v := &Variable{Name: name, kind: XMLVar, node: doc}
	if doc != nil {
		v.nodeSet = []*xdm.Node{doc}
	}
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

// Node returns the XML document of an XML variable (nil for scalars).
func (v *Variable) Node() *xdm.Node {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.node
}

// SetNode replaces the variable's content with an XML document.
func (v *Variable) SetNode(n *xdm.Node) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.kind = XMLVar
	v.node = n
	v.scalar = ""
	if n != nil {
		v.nodeSet = []*xdm.Node{n}
	} else {
		v.nodeSet = nil
	}
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
	v.mu.Lock()
	defer v.mu.Unlock()
	v.kind = ScalarVar
	v.scalar = s
	v.node = nil
	v.nodeSet = nil
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
