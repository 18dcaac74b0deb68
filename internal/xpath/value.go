// Package xpath implements the XPath 1.0 forms the three products'
// processes use, over the xdm node model.
//
// BPEL mandates XPath as the expression language of assign activities; the
// paper's Random Set Access and Tuple IUD patterns for IBM BIS and Oracle
// SOA Suite are realized through XPath expressions over XML RowSets, and
// Oracle's SQL inline support consists of XPath *extension functions*
// (ora:query-database and friends). This engine therefore supports
// literals, variables ($var), relative child paths with predicates, a
// primary expression continued by a path, =, <, <=, > and +, the core
// functions count(path) and position(), and prefixed extension functions
// resolved through a caller-supplied FunctionResolver. xpath_dialect_test.go
// lists each form with the code that issues it; Compile refuses the rest.
package xpath

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"wfsql/internal/xdm"
)

// ValueKind discriminates XPath 1.0 value types.
type ValueKind int

// XPath value kinds.
const (
	KindNodeSet ValueKind = iota
	KindString
	KindNumber
	KindBoolean
)

// Value is an XPath 1.0 value: node-set, string, number, or boolean.
type Value struct {
	Kind  ValueKind
	Nodes []*xdm.Node
	Str   string
	Num   float64
	Bool  bool

	// Fresh marks a node-set whose trees the call that returned it built,
	// and that nothing else references, so a consumer may keep them
	// without copying. Extension functions that build results set it;
	// path steps and variable references never do.
	Fresh bool
}

// NodeSet wraps nodes as a node-set value.
func NodeSet(nodes ...*xdm.Node) Value { return Value{Kind: KindNodeSet, Nodes: nodes} }

// String wraps a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Number wraps a number value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Boolean wraps a boolean value.
func Boolean(b bool) Value { return Value{Kind: KindBoolean, Bool: b} }

// AsString converts the value to a string per XPath 1.0 string().
func (v Value) AsString() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNumber:
		return formatNumber(v.Num)
	case KindBoolean:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindNodeSet:
		if len(v.Nodes) == 0 {
			return ""
		}
		return v.Nodes[0].TextContent()
	}
	return ""
}

// AsNumber converts the value to a number per XPath 1.0 number().
func (v Value) AsNumber() float64 {
	switch v.Kind {
	case KindNumber:
		return v.Num
	case KindBoolean:
		if v.Bool {
			return 1
		}
		return 0
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindNodeSet:
		return String(v.AsString()).AsNumber()
	}
	return math.NaN()
}

// AsBool converts the value to a boolean per XPath 1.0 boolean().
func (v Value) AsBool() bool {
	switch v.Kind {
	case KindBoolean:
		return v.Bool
	case KindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KindString:
		return v.Str != ""
	case KindNodeSet:
		return len(v.Nodes) > 0
	}
	return false
}

// FirstNode returns the first node of a node-set value, or nil.
func (v Value) FirstNode() *xdm.Node {
	if v.Kind == KindNodeSet && len(v.Nodes) > 0 {
		return v.Nodes[0]
	}
	return nil
}

// formatNumber renders numbers the XPath way: integers without a decimal
// point.
func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// VariableResolver supplies values for $name references.
type VariableResolver interface {
	ResolveVariable(name string) (Value, error)
}

// NodeResolver is a VariableResolver that can hand out the one document
// an XML variable holds, without the node-set ResolveVariable returns: a
// path from $name starts at that node. A nil node (a scalar variable)
// sends the path through ResolveVariable.
type NodeResolver interface {
	ResolveNode(name string) (*xdm.Node, error)
}

// FunctionResolver supplies implementations for extension functions
// (any function whose name contains a namespace prefix, e.g.
// "ora:query-database"). Core XPath functions are built in.
type FunctionResolver interface {
	CallFunction(name string, args []Value) (Value, error)
}

// Context is the evaluation context of an expression.
type Context struct {
	Node     *xdm.Node // context node (may be nil for variable-only exprs)
	Position int       // 1-based context position
	Vars     VariableResolver
	Funcs    FunctionResolver
}

// VarMap is a simple map-backed VariableResolver.
type VarMap map[string]Value

// ResolveVariable implements VariableResolver.
func (m VarMap) ResolveVariable(name string) (Value, error) {
	v, ok := m[name]
	if !ok {
		return Value{}, fmt.Errorf("xpath: undefined variable $%s", name)
	}
	return v, nil
}
