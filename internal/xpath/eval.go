package xpath

import (
	"fmt"
	"strings"

	"wfsql/internal/xdm"
)

func (l *literalStr) evalNode(ctx *Context) (Value, error) { return String(l.s), nil }

func (l *literalNum) evalNode(ctx *Context) (Value, error) { return Number(l.f), nil }

func (v *varRef) evalNode(ctx *Context) (Value, error) {
	if ctx.Vars == nil {
		return Value{}, fmt.Errorf("xpath: no variable resolver for $%s", v.name)
	}
	return ctx.Vars.ResolveVariable(v.name)
}

func (b *binaryOp) evalNode(ctx *Context) (Value, error) {
	l, err := b.l.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := b.r.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	switch b.op {
	case "=":
		return Boolean(equalityCompare(l, r)), nil
	case "<=":
		return Boolean(lessOrEqual(l, r)), nil
	case "+":
		return Number(l.AsNumber() + r.AsNumber()), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator %s", b.op)
}

// equalityCompare implements XPath 1.0 = semantics including node-set
// existential comparison.
func equalityCompare(l, r Value) bool {
	// A boolean compares as booleans, a node-set converting to whether it
	// is empty.
	if l.Kind == KindBoolean || r.Kind == KindBoolean {
		return l.AsBool() == r.AsBool()
	}
	eq := func(a, b Value) bool {
		// If either is a number, compare as numbers; else as strings.
		if a.Kind == KindNumber || b.Kind == KindNumber {
			return a.AsNumber() == b.AsNumber()
		}
		return a.AsString() == b.AsString()
	}
	if l.Kind == KindNodeSet && r.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if ln.TextContent() == rn.TextContent() {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if eq(String(ln.TextContent()), r) {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if eq(l, String(rn.TextContent())) {
				return true
			}
		}
		return false
	}
	return eq(l, r)
}

// lessOrEqual implements XPath 1.0 <= semantics including node-set
// existential comparison.
func lessOrEqual(l, r Value) bool {
	// A node-set compared with a boolean converts to whether it is empty.
	if l.Kind == KindNodeSet && r.Kind == KindBoolean || l.Kind == KindBoolean && r.Kind == KindNodeSet {
		l, r = Boolean(l.AsBool()), Boolean(r.AsBool())
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if r.Kind == KindNodeSet {
				for _, rn := range r.Nodes {
					if String(ln.TextContent()).AsNumber() <= String(rn.TextContent()).AsNumber() {
						return true
					}
				}
			} else if String(ln.TextContent()).AsNumber() <= r.AsNumber() {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if l.AsNumber() <= String(rn.TextContent()).AsNumber() {
				return true
			}
		}
		return false
	}
	return l.AsNumber() <= r.AsNumber()
}

func applyPredicate(nodes []*xdm.Node, pred node, ctx *Context) ([]*xdm.Node, error) {
	var out []*xdm.Node
	for i, n := range nodes {
		sub := &Context{Node: n, Position: i + 1, Vars: ctx.Vars, Funcs: ctx.Funcs}
		pv, err := pred.evalNode(sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if pv.Kind == KindNumber {
			keep = float64(i+1) == pv.Num
		} else {
			keep = pv.AsBool()
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

func (p *pathExpr) evalNode(ctx *Context) (Value, error) {
	var current []*xdm.Node
	if p.base != nil {
		bv, err := p.base.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if bv.Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: path applied to non-node-set value")
		}
		current = bv.Nodes
	} else {
		if ctx.Node == nil {
			return Value{}, fmt.Errorf("xpath: relative path with no context node")
		}
		current = []*xdm.Node{ctx.Node}
	}
	for _, st := range p.steps {
		if k, ok := childPosition(current, st); ok {
			c, _ := nthChild(current[0], st.name, k)
			if current = nil; c != nil {
				current = []*xdm.Node{c}
			}
			continue
		}
		next, err := applyStepPredicates(stepNodes(current, st), st, ctx)
		if err != nil {
			return Value{}, err
		}
		current = next
	}
	return NodeSet(current...), nil
}

// count is count(p). When p ends in a child step without predicates that
// starts from one node, as a cursor's `$pos <= count($set/Row)` does per
// row, it counts the matches instead of listing them.
func (p *pathExpr) count(ctx *Context) (Value, error) {
	n, prefix := len(p.steps), *p
	whole := len(p.steps[n-1].preds) > 0
	if !whole {
		prefix.steps = p.steps[:n-1]
	}
	v, err := prefix.evalNode(ctx)
	switch {
	case err != nil:
		return Value{}, err
	case whole:
	case len(v.Nodes) == 1:
		_, c := nthChild(v.Nodes[0], p.steps[n-1].name, 0)
		return Number(float64(c)), nil
	default:
		v.Nodes = stepNodes(v.Nodes, p.steps[n-1])
	}
	return Number(float64(len(v.Nodes))), nil
}

// childPosition recognizes a child step from one node whose only
// predicate is a number literal k, such as Row[4]: no context position
// changes it, so the step selects the k-th match without listing its
// siblings. Anything else takes the general path.
func childPosition(current []*xdm.Node, st step) (int, bool) {
	if len(current) != 1 || len(st.preds) != 1 {
		return 0, false
	}
	lit, ok := st.preds[0].(*literalNum)
	if !ok {
		return 0, false
	}
	if k := int(lit.f); float64(k) == lit.f {
		return k, true
	}
	return 0, true // no position equals a fraction: select nothing
}

// nthChild returns n's k-th element child that passes the name test,
// counting from 1, or nil and how many pass when fewer than k do.
func nthChild(n *xdm.Node, name string, k int) (*xdm.Node, int) {
	seen := 0
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && c.Name == name {
			if seen++; seen == k {
				return c, seen
			}
		}
	}
	return nil, seen
}

// stepNodes lists the children of every context node that pass the
// step's name test, in order. A node-set holds each node once, so no two
// context nodes share a child and no node is reached twice.
func stepNodes(current []*xdm.Node, st step) []*xdm.Node {
	switch len(current) {
	case 0:
		return nil
	case 1:
		return appendChildren(make([]*xdm.Node, 0, len(current[0].Children)), current[0], st.name)
	}
	var next []*xdm.Node
	for _, n := range current {
		next = appendChildren(next, n, st.name)
	}
	return next
}

// appendChildren appends to dst n's element children named name.
func appendChildren(dst []*xdm.Node, n *xdm.Node, name string) []*xdm.Node {
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && c.Name == name {
			dst = append(dst, c)
		}
	}
	return dst
}

func applyStepPredicates(nodes []*xdm.Node, st step, ctx *Context) ([]*xdm.Node, error) {
	var err error
	for _, pred := range st.preds {
		nodes, err = applyPredicate(nodes, pred, ctx)
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

func (f *funcCall) evalNode(ctx *Context) (Value, error) {
	// Extension functions carry a namespace prefix.
	if strings.Contains(f.name, ":") {
		if ctx.Funcs == nil {
			return Value{}, fmt.Errorf("xpath: no function resolver for %s()", f.name)
		}
		args := make([]Value, len(f.args))
		for i, a := range f.args {
			v, err := a.evalNode(ctx)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return ctx.Funcs.CallFunction(f.name, args)
	}
	return f.evalCore(ctx)
}

// evalCore evaluates a core function; Compile admits only position() and
// count(path).
func (f *funcCall) evalCore(ctx *Context) (Value, error) {
	switch f.name {
	case "position":
		return Number(float64(ctx.Position)), nil
	case "count":
		return f.args[0].(*pathExpr).count(ctx)
	}
	return Value{}, fmt.Errorf("xpath: unknown function %s()", f.name)
}
