package xpath

import (
	"fmt"
	"math"
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

func (n *negOp) evalNode(ctx *Context) (Value, error) {
	v, err := n.x.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	return Number(-v.AsNumber()), nil
}

func (b *binaryOp) evalNode(ctx *Context) (Value, error) {
	if b.op == "or" || b.op == "and" {
		l, err := b.l.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if l.AsBool() == (b.op == "or") { // decided by the left operand
			return Boolean(l.AsBool()), nil
		}
		r, err := b.r.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		return Boolean(r.AsBool()), nil
	}
	l, err := b.l.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := b.r.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	switch b.op {
	case "=", "!=":
		return Boolean(equalityCompare(l, r, b.op == "!=")), nil
	case "<", "<=", ">", ">=":
		return Boolean(relationalCompare(l, r, b.op)), nil
	case "+":
		return Number(l.AsNumber() + r.AsNumber()), nil
	case "-":
		return Number(l.AsNumber() - r.AsNumber()), nil
	case "*":
		return Number(l.AsNumber() * r.AsNumber()), nil
	case "div":
		return Number(l.AsNumber() / r.AsNumber()), nil
	case "mod":
		return Number(math.Mod(l.AsNumber(), r.AsNumber())), nil
	case "|":
		if l.Kind != KindNodeSet || r.Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: union requires node-sets")
		}
		seen := map[*xdm.Node]bool{}
		var out []*xdm.Node
		for _, n := range append(append([]*xdm.Node{}, l.Nodes...), r.Nodes...) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		return NodeSet(out...), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator %s", b.op)
}

// equalityCompare implements XPath 1.0 = / != semantics including node-set
// existential comparison.
func equalityCompare(l, r Value, negate bool) bool {
	eq := func(a, b Value) bool {
		// If either is a boolean, compare as booleans; else if either is a
		// number, compare as numbers; else as strings.
		if a.Kind == KindBoolean || b.Kind == KindBoolean {
			return a.AsBool() == b.AsBool()
		}
		if a.Kind == KindNumber || b.Kind == KindNumber {
			return a.AsNumber() == b.AsNumber()
		}
		return a.AsString() == b.AsString()
	}
	if l.Kind == KindNodeSet && r.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if (ln.TextContent() == rn.TextContent()) != negate {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if eq(String(ln.TextContent()), r) != negate {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if eq(l, String(rn.TextContent())) != negate {
				return true
			}
		}
		return false
	}
	return eq(l, r) != negate
}

func relationalCompare(l, r Value, op string) bool {
	cmp := func(a, b float64) bool {
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		case ">=":
			return a >= b
		}
		return false
	}
	if l.Kind == KindNodeSet {
		for _, ln := range l.Nodes {
			if r.Kind == KindNodeSet {
				for _, rn := range r.Nodes {
					if cmp(String(ln.TextContent()).AsNumber(), String(rn.TextContent()).AsNumber()) {
						return true
					}
				}
			} else if cmp(String(ln.TextContent()).AsNumber(), r.AsNumber()) {
				return true
			}
		}
		return false
	}
	if r.Kind == KindNodeSet {
		for _, rn := range r.Nodes {
			if cmp(l.AsNumber(), String(rn.TextContent()).AsNumber()) {
				return true
			}
		}
		return false
	}
	return cmp(l.AsNumber(), r.AsNumber())
}

func (f *filterExpr) evalNode(ctx *Context) (Value, error) {
	v, err := f.base.evalNode(ctx)
	if err != nil {
		return Value{}, err
	}
	if v.Kind != KindNodeSet {
		return Value{}, fmt.Errorf("xpath: predicate applied to non-node-set")
	}
	nodes := v.Nodes
	for _, pred := range f.preds {
		nodes, err = applyPredicate(nodes, pred, ctx)
		if err != nil {
			return Value{}, err
		}
	}
	return NodeSet(nodes...), nil
}

func applyPredicate(nodes []*xdm.Node, pred node, ctx *Context) ([]*xdm.Node, error) {
	var out []*xdm.Node
	size := len(nodes)
	for i, n := range nodes {
		sub := &Context{Node: n, Position: i + 1, Size: size, Vars: ctx.Vars, Funcs: ctx.Funcs}
		pv, err := pred.evalNode(sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if pv.Kind == KindNumber {
			keep = int(pv.Num) == i+1
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
	switch {
	case p.base != nil:
		bv, err := p.base.evalNode(ctx)
		if err != nil {
			return Value{}, err
		}
		if bv.Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: path applied to non-node-set value")
		}
		current = bv.Nodes
	case p.absolute:
		if ctx.Node == nil {
			return Value{}, fmt.Errorf("xpath: absolute path with no context node")
		}
		current = []*xdm.Node{ctx.Node.Root()}
		// An absolute path's first step matches against the root element
		// itself (document-node semantics): /a selects the root if named a.
		if len(p.steps) > 0 && p.steps[0].axis == axisChild {
			st := p.steps[0]
			var matched []*xdm.Node
			for _, n := range current {
				if nameMatches(n, st.name) {
					matched = append(matched, n)
				}
			}
			var err error
			matched, err = applyStepPredicates(matched, st, ctx)
			if err != nil {
				return Value{}, err
			}
			current = matched
			return p.evalSteps(current, p.steps[1:], ctx)
		}
	default:
		if ctx.Node == nil {
			return Value{}, fmt.Errorf("xpath: relative path with no context node")
		}
		current = []*xdm.Node{ctx.Node}
	}
	return p.evalSteps(current, p.steps, ctx)
}

func (p *pathExpr) evalSteps(current []*xdm.Node, steps []step, ctx *Context) (Value, error) {
	for _, st := range steps {
		if k, ok := childPosition(current, st, ctx); ok {
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
	whole := n == 0 || p.steps[n-1].axis != axisChild || len(p.steps[n-1].preds) > 0 || p.absolute && n == 1
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
// predicate is a literal or a variable that is a number k, such as a
// cursor's $set/Row[$pos]: no context position changes it, so the step
// selects the k-th match without listing its siblings. Anything else
// takes the general path.
func childPosition(current []*xdm.Node, st step, ctx *Context) (int, bool) {
	if len(current) != 1 || st.axis != axisChild || len(st.preds) != 1 {
		return 0, false
	}
	switch st.preds[0].(type) {
	case *literalNum, *varRef:
		pv, err := st.preds[0].evalNode(ctx)
		return int(pv.Num), err == nil && pv.Kind == KindNumber
	}
	return 0, false
}

// nthChild returns n's k-th element child that passes the name test,
// counting from 1, or nil and how many pass when fewer than k do.
func nthChild(n *xdm.Node, name string, k int) (*xdm.Node, int) {
	seen := 0
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && nameMatches(c, name) {
			if seen++; seen == k {
				return c, seen
			}
		}
	}
	return nil, seen
}

// stepNodes applies one step's axis and name test to every context node,
// in order. From a single context node no axis reaches a node twice, so
// the de-duplication set is only built for a longer list (where `..` from
// siblings or `//` from nested nodes does): a cursor's $set/Row and
// $row/Field steps, evaluated per tuple, always start from one node.
func stepNodes(current []*xdm.Node, st step) []*xdm.Node {
	switch len(current) {
	case 0:
		return nil
	case 1:
		var next []*xdm.Node
		if st.axis == axisChild || st.axis == axisText {
			next = make([]*xdm.Node, 0, len(current[0].Children))
		}
		return axisNodes(next, current[0], st)
	}
	var next, reached []*xdm.Node
	seen := map[*xdm.Node]bool{}
	for _, n := range current {
		reached = axisNodes(reached[:0], n, st)
		for _, m := range reached {
			if !seen[m] {
				seen[m] = true
				next = append(next, m)
			}
		}
	}
	return next
}

// axisNodes appends to dst the nodes the step's axis and name test reach
// from n, in document order.
func axisNodes(dst []*xdm.Node, n *xdm.Node, st step) []*xdm.Node {
	switch st.axis {
	case axisChild:
		for _, c := range n.Children {
			if c.Kind == xdm.ElementNode && nameMatches(c, st.name) {
				dst = append(dst, c)
			}
		}
	case axisDescendant:
		if nameMatches(n, st.name) {
			dst = append(dst, n)
		}
		dst = appendDescendants(dst, n, st.name)
	case axisSelf:
		dst = append(dst, n)
	case axisParent:
		if pn := n.Parent(); pn != nil {
			dst = append(dst, pn)
		}
	case axisAttribute:
		if st.name == "*" {
			for _, a := range n.Attrs {
				dst = append(dst, attrNode(a.Name, a.Value))
			}
		} else if v, ok := n.Attr(st.name); ok {
			dst = append(dst, attrNode(st.name, v))
		}
	case axisText:
		for _, c := range n.Children {
			if c.Kind == xdm.TextNode {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

func appendDescendants(dst []*xdm.Node, n *xdm.Node, name string) []*xdm.Node {
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode {
			if nameMatches(c, name) {
				dst = append(dst, c)
			}
			dst = appendDescendants(dst, c, name)
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

// attrNode wraps an attribute as a synthetic text node so that its string
// value participates in comparisons and extraction uniformly.
func attrNode(name, value string) *xdm.Node {
	n := xdm.NewText(value)
	n.Name = name
	return n
}

func nameMatches(n *xdm.Node, test string) bool {
	if test == "*" {
		return true
	}
	if n.Name == test {
		return true
	}
	// Ignore-prefix matching: a test without a prefix matches a prefixed
	// element of the same local name (documents in the products mix
	// prefixed and unprefixed row elements).
	if !strings.Contains(test, ":") {
		if i := strings.LastIndex(n.Name, ":"); i >= 0 && n.Name[i+1:] == test {
			return true
		}
	}
	return false
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

func (f *funcCall) evalCore(ctx *Context) (Value, error) {
	evalArgs := func() ([]Value, error) {
		args := make([]Value, len(f.args))
		for i, a := range f.args {
			v, err := a.evalNode(ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return args, nil
	}
	arity := func(args []Value, n int) error {
		if len(args) != n {
			return fmt.Errorf("xpath: %s() expects %d argument(s), got %d", f.name, n, len(args))
		}
		return nil
	}
	if f.name == "count" && len(f.args) == 1 {
		if p, ok := f.args[0].(*pathExpr); ok {
			return p.count(ctx)
		}
	}
	switch f.name {
	case "position":
		return Number(float64(ctx.Position)), nil
	case "last":
		return Number(float64(ctx.Size)), nil
	case "true":
		return Boolean(true), nil
	case "false":
		return Boolean(false), nil
	}
	args, err := evalArgs()
	if err != nil {
		return Value{}, err
	}
	switch f.name {
	case "count":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		if args[0].Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: count() requires a node-set")
		}
		return Number(float64(len(args[0].Nodes))), nil
	case "sum":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		if args[0].Kind != KindNodeSet {
			return Value{}, fmt.Errorf("xpath: sum() requires a node-set")
		}
		total := 0.0
		for _, n := range args[0].Nodes {
			total += String(n.TextContent()).AsNumber()
		}
		return Number(total), nil
	case "string":
		if len(args) == 0 {
			if ctx.Node == nil {
				return String(""), nil
			}
			return String(ctx.Node.TextContent()), nil
		}
		return String(args[0].AsString()), nil
	case "number":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Number(args[0].AsNumber()), nil
	case "boolean":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Boolean(args[0].AsBool()), nil
	case "not":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Boolean(!args[0].AsBool()), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.AsString())
		}
		return String(b.String()), nil
	case "contains":
		if err := arity(args, 2); err != nil {
			return Value{}, err
		}
		return Boolean(strings.Contains(args[0].AsString(), args[1].AsString())), nil
	case "starts-with":
		if err := arity(args, 2); err != nil {
			return Value{}, err
		}
		return Boolean(strings.HasPrefix(args[0].AsString(), args[1].AsString())), nil
	case "substring-before":
		if err := arity(args, 2); err != nil {
			return Value{}, err
		}
		s, sep := args[0].AsString(), args[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[:i]), nil
		}
		return String(""), nil
	case "substring-after":
		if err := arity(args, 2); err != nil {
			return Value{}, err
		}
		s, sep := args[0].AsString(), args[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[i+len(sep):]), nil
		}
		return String(""), nil
	case "substring":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("xpath: substring() expects 2 or 3 arguments")
		}
		s := args[0].AsString()
		start := int(math.Round(args[1].AsNumber()))
		length := len(s)
		if len(args) == 3 {
			length = int(math.Round(args[2].AsNumber()))
		}
		// XPath 1-based indexing.
		from := start - 1
		to := from + length
		if len(args) == 2 {
			to = len(s)
		}
		if from < 0 {
			from = 0
		}
		if to > len(s) {
			to = len(s)
		}
		if from >= len(s) || to <= from {
			return String(""), nil
		}
		return String(s[from:to]), nil
	case "string-length":
		if len(args) == 0 {
			if ctx.Node == nil {
				return Number(0), nil
			}
			return Number(float64(len(ctx.Node.TextContent()))), nil
		}
		return Number(float64(len(args[0].AsString()))), nil
	case "normalize-space":
		s := ""
		if len(args) == 0 {
			if ctx.Node != nil {
				s = ctx.Node.TextContent()
			}
		} else {
			s = args[0].AsString()
		}
		return String(strings.Join(strings.Fields(s), " ")), nil
	case "translate":
		if err := arity(args, 3); err != nil {
			return Value{}, err
		}
		s, from, to := args[0].AsString(), args[1].AsString(), args[2].AsString()
		var b strings.Builder
		for _, r := range s {
			if i := strings.IndexRune(from, r); i >= 0 {
				if i < len(to) {
					b.WriteByte(to[i])
				}
				continue
			}
			b.WriteRune(r)
		}
		return String(b.String()), nil
	case "floor":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Number(math.Floor(args[0].AsNumber())), nil
	case "ceiling":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Number(math.Ceil(args[0].AsNumber())), nil
	case "round":
		if err := arity(args, 1); err != nil {
			return Value{}, err
		}
		return Number(math.Round(args[0].AsNumber())), nil
	case "name", "local-name":
		if len(args) == 0 {
			if ctx.Node == nil {
				return String(""), nil
			}
			return String(localOrFull(ctx.Node.Name, f.name)), nil
		}
		if args[0].Kind != KindNodeSet || len(args[0].Nodes) == 0 {
			return String(""), nil
		}
		return String(localOrFull(args[0].Nodes[0].Name, f.name)), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown function %s()", f.name)
}

func localOrFull(name, fn string) string {
	if fn == "local-name" {
		if i := strings.LastIndex(name, ":"); i >= 0 {
			return name[i+1:]
		}
	}
	return name
}
