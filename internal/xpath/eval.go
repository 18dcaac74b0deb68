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
	one, set, err := p.walk(ctx, p.steps)
	if one != nil {
		return NodeSet(one), err
	}
	return NodeSet(set...), err
}

// walk applies steps to the path's start. A step from one context node
// (the context node, a variable's document, a positional step's match)
// starts from that node alone; a walk that takes no step from one
// returns it as one, with no set.
func (p *pathExpr) walk(ctx *Context, steps []step) (one *xdm.Node, set []*xdm.Node, err error) {
	switch r, isVar := p.base.(*varRef); {
	case p.base == nil:
		if one = ctx.Node; one == nil {
			return nil, nil, fmt.Errorf("xpath: relative path with no context node")
		}
	case isVar && ctx.Vars != nil:
		if nr, ok := ctx.Vars.(NodeResolver); ok {
			if one, err = nr.ResolveNode(r.name); err != nil {
				return nil, nil, err
			}
		}
	}
	if one == nil && p.base != nil {
		bv, err := p.base.evalNode(ctx)
		if err != nil {
			return nil, nil, err
		}
		if bv.Kind != KindNodeSet {
			return nil, nil, fmt.Errorf("xpath: path applied to non-node-set value")
		}
		set = bv.Nodes
	}
	for _, st := range steps {
		if one == nil && len(set) == 1 {
			one = set[0]
		}
		if one == nil {
			set, err = applyStepPredicates(stepNodes(set, st), st, ctx)
		} else {
			set, err = stepFrom(one, st, ctx)
			one = nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return one, set, nil
}

// stepFrom applies a step to one context node. A child step whose only
// predicate is a number literal k, such as Row[4], selects the k-th match
// without listing its siblings: no context position changes it.
func stepFrom(n *xdm.Node, st step, ctx *Context) ([]*xdm.Node, error) {
	if len(st.preds) == 1 {
		if lit, ok := st.preds[0].(*literalNum); ok {
			k := int(lit.f)
			if float64(k) != lit.f { // no position equals a fraction
				return nil, nil
			}
			if c, _ := nthChild(n, st.name, k); c != nil {
				return []*xdm.Node{c}, nil
			}
			return nil, nil
		}
	}
	return applyStepPredicates(appendChildren(make([]*xdm.Node, 0, len(n.Children)), n, st.name), st, ctx)
}

// count is count(p). When p ends in a child step without predicates that
// starts from one node, as a cursor's `$pos <= count($set/Row)` does per
// row, it counts the matches instead of listing them.
func (p *pathExpr) count(ctx *Context) (Value, error) {
	n := len(p.steps)
	last := p.steps[n-1]
	whole := len(last.preds) > 0
	steps := p.steps
	if !whole {
		steps = steps[:n-1]
	}
	one, set, err := p.walk(ctx, steps)
	switch {
	case err != nil:
		return Value{}, err
	case whole: // walk took a step, so the count is the set's
		return Number(float64(len(set))), nil
	case one == nil && len(set) == 1:
		one = set[0]
	}
	if one != nil {
		_, c := nthChild(one, last.name, 0)
		return Number(float64(c)), nil
	}
	return Number(float64(len(stepNodes(set, last)))), nil
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
