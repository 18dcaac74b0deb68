// Package bpelxml serializes process models to BPEL XML documents and
// loads them back — the artifact the paper's design tools exchange: "As a
// result of this design step, we get a description of the process in
// BPEL. From this description the tool generates code that is deployed
// and executed on the WebSphere Process Server."
//
// Standard BPEL activities map to their standard elements (sequence,
// flow, while, if, assign, invoke, empty, wait, throw, scope,
// compensate). Product-specific activities are emitted as BPEL
// extensionActivity elements: the IBM information service activities
// under the wid: prefix (SQL, retrieve set, atomic SQL sequence) and
// Oracle's bpelx assign operations under bpelx:. Code snippets travel by
// name and are resolved from a Resolver at load time (the same
// code-separation style the WF XOML loader uses).
package bpelxml

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/orasoa"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// Resolver supplies the code artifacts a BPEL document references by
// name: snippet handlers and (rarely) Go-coded conditions.
type Resolver struct {
	Snippets   map[string]func(ctx *engine.Ctx) error
	Conditions map[string]func(ctx *engine.Ctx) (bool, error)
}

// MarshalProcess serializes a plain engine process (variables + body).
func MarshalProcess(p *engine.Process) (string, error) {
	root := xdm.NewElement("process")
	root.SetAttr("name", p.Name)
	root.SetAttr("xmlns", "http://docs.oasis-open.org/wsbpel/2.0/process/executable")
	if p.Mode == engine.ShortRunning {
		root.SetAttr("wid:executionMode", "microflow")
	}
	vars := root.Element("variables")
	for _, vd := range p.Variables {
		v := vars.Element("variable")
		v.SetAttr("name", vd.Name)
		if vd.Kind == engine.XMLVar {
			v.SetAttr("type", "xml")
			if vd.InitXML != "" {
				init, err := xdm.Parse(vd.InitXML)
				if err != nil {
					return "", fmt.Errorf("bpelxml: variable %s init: %w", vd.Name, err)
				}
				v.Element("from").AppendChild(init)
			}
		} else {
			v.SetAttr("type", "string")
			if vd.Init != "" {
				v.SetAttr("init", vd.Init)
			}
		}
	}
	if err := marshalInto(root, p.Body); err != nil {
		return "", err
	}
	return root.Indent(), nil
}

// UnmarshalProcess parses a document produced by MarshalProcess.
func UnmarshalProcess(doc string, r *Resolver) (*engine.Process, error) {
	root, err := xdm.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("bpelxml: %w", err)
	}
	if localName(root.Name) != "process" {
		return nil, fmt.Errorf("bpelxml: root element %s, want process", root.Name)
	}
	name, _ := root.Attr("name")
	p := &engine.Process{Name: name}
	if m, ok := root.Attr("wid:executionMode"); ok && m == "microflow" {
		p.Mode = engine.ShortRunning
	}
	var bodyEl *xdm.Node
	for _, el := range root.ChildElements() {
		if localName(el.Name) == "variables" {
			for _, v := range el.ChildElements() {
				vd, err := unmarshalVariable(v)
				if err != nil {
					return nil, err
				}
				p.Variables = append(p.Variables, vd)
			}
			continue
		}
		if bodyEl != nil {
			return nil, fmt.Errorf("bpelxml: process has multiple body activities")
		}
		bodyEl = el
	}
	if bodyEl == nil {
		return nil, fmt.Errorf("bpelxml: process has no body")
	}
	body, err := unmarshalActivity(bodyEl, r)
	if err != nil {
		return nil, err
	}
	p.Body = body
	return p, nil
}

func unmarshalVariable(v *xdm.Node) (engine.VarDecl, error) {
	name, _ := v.Attr("name")
	typ, _ := v.Attr("type")
	if typ == "xml" {
		vd := engine.VarDecl{Name: name, Kind: engine.XMLVar}
		if from := v.FirstChildElement("from"); from != nil {
			if init := from.FirstChildElement(""); init != nil {
				vd.InitXML = init.String()
			}
		}
		return vd, nil
	}
	init, _ := v.Attr("init")
	return engine.VarDecl{Name: name, Kind: engine.ScalarVar, Init: init}, nil
}

// --- Activity marshalling ---

func marshalActivity(a engine.Activity) (*xdm.Node, error) {
	switch t := a.(type) {
	case *engine.Sequence:
		return marshalChildren("sequence", t.ActivityName, t.Children)
	case *engine.Flow:
		return marshalChildren("flow", t.ActivityName, t.Children)
	case *engine.Empty:
		el := xdm.NewElement("empty")
		el.SetAttr("name", t.ActivityName)
		return el, nil
	case *engine.Wait:
		el := xdm.NewElement("wait")
		el.SetAttr("name", t.ActivityName)
		el.SetAttr("for", t.Duration.String())
		return el, nil
	case *engine.Throw:
		el := xdm.NewElement("throw")
		el.SetAttr("name", t.ActivityName)
		el.SetAttr("faultName", t.FaultName)
		return el, nil
	case *engine.Compensate:
		el := xdm.NewElement("compensate")
		el.SetAttr("name", t.ActivityName)
		return el, nil
	case *engine.While:
		el := xdm.NewElement("while")
		el.SetAttr("name", t.ActivityName)
		if err := marshalCondition(el, t.Condition); err != nil {
			return nil, fmt.Errorf("while %s: %w", t.ActivityName, err)
		}
		if err := marshalInto(el, t.Body); err != nil {
			return nil, err
		}
		return el, nil
	case *engine.If:
		el := xdm.NewElement("if")
		el.SetAttr("name", t.ActivityName)
		for i, b := range t.Branches {
			wrap := el
			if i > 0 {
				wrap = el.Element("elseif")
			}
			if err := marshalCondition(wrap, b.Condition); err != nil {
				return nil, fmt.Errorf("if %s: %w", t.ActivityName, err)
			}
			if err := marshalInto(wrap, b.Body); err != nil {
				return nil, err
			}
		}
		if t.Else != nil {
			if err := marshalInto(el.Element("else"), t.Else); err != nil {
				return nil, err
			}
		}
		return el, nil
	case *engine.Assign:
		el := xdm.NewElement("assign")
		el.SetAttr("name", t.ActivityName)
		for _, cp := range t.Copies {
			c := el.Element("copy")
			c.Element("from").SetText(cp.From.Source())
			to := c.Element("to")
			to.SetAttr("variable", cp.ToVar)
			if cp.ToPath != nil {
				to.SetAttr("query", cp.ToPath.Source())
			}
		}
		return el, nil
	case *engine.Invoke:
		el := xdm.NewElement("invoke")
		el.SetAttr("name", t.ActivityName)
		el.SetAttr("operation", t.Service)
		for _, part := range sortedKeys(t.Inputs) {
			pe := el.Element("toPart")
			pe.SetAttr("part", part)
			pe.SetAttr("expression", t.Inputs[part].Source())
		}
		for _, part := range sortedKeys(t.Outputs) {
			pe := el.Element("fromPart")
			pe.SetAttr("part", part)
			pe.SetAttr("toVariable", t.Outputs[part])
		}
		return el, nil
	case *engine.Receive:
		el := xdm.NewElement("receive")
		el.SetAttr("name", t.ActivityName)
		for _, part := range sortedKeys(t.Parts) {
			pe := el.Element("fromPart")
			pe.SetAttr("part", part)
			pe.SetAttr("toVariable", t.Parts[part])
			if t.Optional[part] {
				pe.SetAttr("optional", "true")
			}
		}
		return el, nil
	case *engine.Reply:
		el := xdm.NewElement("reply")
		el.SetAttr("name", t.ActivityName)
		for _, part := range sortedKeys(t.Parts) {
			pe := el.Element("toPart")
			pe.SetAttr("part", part)
			pe.SetAttr("expression", t.Parts[part].Source())
		}
		return el, nil
	case *engine.Scope:
		el := xdm.NewElement("scope")
		el.SetAttr("name", t.ActivityName)
		if t.FaultHandler != nil {
			if err := marshalInto(el.Element("faultHandlers").Element("catchAll"), t.FaultHandler); err != nil {
				return nil, err
			}
		}
		if t.Compensation != nil {
			if err := marshalInto(el.Element("compensationHandler"), t.Compensation); err != nil {
				return nil, err
			}
		}
		if t.Finally != nil {
			if err := marshalInto(el.Element("wid:finally"), t.Finally); err != nil {
				return nil, err
			}
		}
		if err := marshalInto(el, t.Body); err != nil {
			return nil, err
		}
		return el, nil
	case *engine.Snippet:
		el := xdm.NewElement("extensionActivity")
		s := el.Element("wid:javaSnippet")
		s.SetAttr("name", t.ActivityName)
		return el, nil
	case *bis.SQLActivity:
		el := xdm.NewElement("extensionActivity")
		s := el.Element("wid:sql")
		s.SetAttr("name", t.ActivityName)
		s.SetAttr("dataSource", t.DataSource)
		if t.ResultRef != "" {
			s.SetAttr("resultSetReference", t.ResultRef)
		}
		s.SetText(t.SQL)
		return el, nil
	case *bis.RetrieveSetActivity:
		el := xdm.NewElement("extensionActivity")
		s := el.Element("wid:retrieveSet")
		s.SetAttr("name", t.ActivityName)
		s.SetAttr("dataSource", t.DataSource)
		s.SetAttr("setReference", t.SetRefName)
		s.SetAttr("setVariable", t.SetVariable)
		return el, nil
	case *bis.AtomicSQLSequence:
		el := xdm.NewElement("extensionActivity")
		s := el.Element("wid:atomicSQLSequence")
		s.SetAttr("name", t.ActivityName)
		for _, c := range t.Children {
			if err := marshalInto(s, c); err != nil {
				return nil, err
			}
		}
		return el, nil
	case *orasoa.BpelxAssign:
		el := xdm.NewElement("assign")
		el.SetAttr("name", t.ActivityName)
		for _, op := range t.Ops {
			var oe *xdm.Node
			switch op.Kind {
			case orasoa.OpCopy:
				oe = el.Element("copy")
			case orasoa.OpInsertAfter:
				oe = el.Element("bpelx:insertAfter")
			case orasoa.OpAppend:
				oe = el.Element("bpelx:append")
			case orasoa.OpRemove:
				oe = el.Element("bpelx:remove")
			}
			if op.From != nil {
				oe.Element("from").SetText(op.From.Source())
			}
			to := oe.Element("to")
			to.SetAttr("variable", op.ToVar)
			if op.ToPath != nil {
				to.SetAttr("query", op.ToPath.Source())
			}
		}
		return el, nil
	}
	return nil, fmt.Errorf("bpelxml: activity %T cannot be serialized", a)
}

// marshalInto marshals a as parent's last child.
func marshalInto(parent *xdm.Node, a engine.Activity) error {
	el, err := marshalActivity(a)
	if err == nil {
		parent.AppendChild(el)
	}
	return err
}

func marshalChildren(elem, name string, children []engine.Activity) (*xdm.Node, error) {
	el := xdm.NewElement(elem)
	el.SetAttr("name", name)
	for _, c := range children {
		if err := marshalInto(el, c); err != nil {
			return nil, err
		}
	}
	return el, nil
}

func marshalCondition(parent *xdm.Node, c engine.Condition) error {
	xc, ok := c.(*engine.XPathCondition)
	if !ok {
		return fmt.Errorf("bpelxml: only XPath conditions can be serialized (got %T)", c)
	}
	parent.Element("condition").SetText(xc.Expr.Source())
	return nil
}

// --- Activity unmarshalling ---

func unmarshalActivity(el *xdm.Node, r *Resolver) (engine.Activity, error) {
	name, _ := el.Attr("name")
	switch localName(el.Name) {
	case "sequence", "flow":
		children, err := unmarshalChildren(el, r, nil)
		if err != nil {
			return nil, err
		}
		if localName(el.Name) == "flow" {
			return &engine.Flow{ActivityName: name, Children: children}, nil
		}
		return &engine.Sequence{ActivityName: name, Children: children}, nil
	case "empty":
		return &engine.Empty{ActivityName: name}, nil
	case "wait":
		durAttr, _ := el.Attr("for")
		d, err := time.ParseDuration(durAttr)
		if err != nil {
			return nil, fmt.Errorf("bpelxml: wait %s: %w", name, err)
		}
		return &engine.Wait{ActivityName: name, Duration: d}, nil
	case "throw":
		fn, _ := el.Attr("faultName")
		return &engine.Throw{ActivityName: name, FaultName: fn}, nil
	case "compensate":
		return &engine.Compensate{ActivityName: name}, nil
	case "while":
		cond, err := unmarshalCondition(el)
		if err != nil {
			return nil, fmt.Errorf("bpelxml: while %s: %w", name, err)
		}
		body, err := singleBody(el, r, "condition")
		if err != nil {
			return nil, fmt.Errorf("bpelxml: while %s: %w", name, err)
		}
		return &engine.While{ActivityName: name, Condition: cond, Body: body}, nil
	case "if":
		act := &engine.If{ActivityName: name}
		cond, err := unmarshalCondition(el)
		if err != nil {
			return nil, fmt.Errorf("bpelxml: if %s: %w", name, err)
		}
		body, err := singleBody(el, r, "condition", "elseif", "else")
		if err != nil {
			return nil, fmt.Errorf("bpelxml: if %s: %w", name, err)
		}
		act.Branches = append(act.Branches, engine.IfBranch{Condition: cond, Body: body})
		for _, c := range el.ChildElements() {
			switch localName(c.Name) {
			case "elseif":
				cond, err := unmarshalCondition(c)
				if err != nil {
					return nil, err
				}
				b, err := singleBody(c, r, "condition")
				if err != nil {
					return nil, err
				}
				act.Branches = append(act.Branches, engine.IfBranch{Condition: cond, Body: b})
			case "else":
				b, err := singleBody(c, r)
				if err != nil {
					return nil, err
				}
				act.Else = b
			}
		}
		return act, nil
	case "assign":
		// Distinguish a plain assign from a bpelx-extended one.
		hasBpelx := false
		for _, c := range el.ChildElements() {
			if strings.HasPrefix(c.Name, "bpelx:") {
				hasBpelx = true
			}
		}
		if hasBpelx {
			return unmarshalBpelxAssign(el, name)
		}
		act := engine.NewAssign(name)
		for _, c := range el.ChildElements() {
			if localName(c.Name) != "copy" {
				return nil, fmt.Errorf("bpelxml: assign %s: unexpected %s", name, c.Name)
			}
			from := strings.TrimSpace(c.ChildText("from"))
			to := c.FirstChildElement("to")
			if from == "" || to == nil {
				return nil, fmt.Errorf("bpelxml: assign %s: copy needs from and to", name)
			}
			v, _ := to.Attr("variable")
			if q, ok := to.Attr("query"); ok {
				act.CopyTo(from, v, q)
			} else {
				act.Copy(from, v)
			}
		}
		return act, nil
	case "invoke":
		op, _ := el.Attr("operation")
		act := engine.NewInvoke(name, op)
		for _, c := range el.ChildElements() {
			part, _ := c.Attr("part")
			switch localName(c.Name) {
			case "toPart":
				expr, _ := c.Attr("expression")
				act.In(part, expr)
			case "fromPart":
				v, _ := c.Attr("toVariable")
				act.Out(part, v)
			}
		}
		return act, nil
	case "receive":
		act := engine.NewReceive(name)
		for _, c := range el.ChildElements() {
			part, _ := c.Attr("part")
			v, _ := c.Attr("toVariable")
			if opt, _ := c.Attr("optional"); opt == "true" {
				act.OptionalPart(part, v)
			} else {
				act.Part(part, v)
			}
		}
		return act, nil
	case "reply":
		act := engine.NewReply(name)
		for _, c := range el.ChildElements() {
			part, _ := c.Attr("part")
			expr, _ := c.Attr("expression")
			act.Part(part, expr)
		}
		return act, nil
	case "scope":
		sc := &engine.Scope{ActivityName: name}
		for _, c := range el.ChildElements() {
			switch localName(c.Name) {
			case "faultHandlers":
				catch := c.FirstChildElement("catchAll")
				if catch == nil {
					return nil, fmt.Errorf("bpelxml: scope %s: faultHandlers without catchAll", name)
				}
				h, err := singleBody(catch, r)
				if err != nil {
					return nil, err
				}
				sc.FaultHandler = h
			case "compensationHandler":
				h, err := singleBody(c, r)
				if err != nil {
					return nil, err
				}
				sc.Compensation = h
			case "finally":
				h, err := singleBody(c, r)
				if err != nil {
					return nil, err
				}
				sc.Finally = h
			default:
				if sc.Body != nil {
					return nil, fmt.Errorf("bpelxml: scope %s has multiple bodies", name)
				}
				b, err := unmarshalActivity(c, r)
				if err != nil {
					return nil, err
				}
				sc.Body = b
			}
		}
		if sc.Body == nil {
			return nil, fmt.Errorf("bpelxml: scope %s has no body", name)
		}
		return sc, nil
	case "extensionActivity":
		inner := el.FirstChildElement("")
		if inner == nil {
			return nil, fmt.Errorf("bpelxml: empty extensionActivity")
		}
		return unmarshalExtension(inner, r)
	}
	return nil, fmt.Errorf("bpelxml: unsupported element %s", el.Name)
}

func unmarshalExtension(inner *xdm.Node, r *Resolver) (engine.Activity, error) {
	name, _ := inner.Attr("name")
	switch localName(inner.Name) {
	case "javaSnippet":
		if r == nil || r.Snippets[name] == nil {
			return nil, fmt.Errorf("bpelxml: no snippet handler registered for %q", name)
		}
		return engine.NewSnippet(name, r.Snippets[name]), nil
	case "sql":
		ds, _ := inner.Attr("dataSource")
		act := bis.NewSQL(name, ds, strings.TrimSpace(inner.TextContent()))
		if ref, ok := inner.Attr("resultSetReference"); ok {
			act.Into(ref)
		}
		return act, nil
	case "retrieveSet":
		ds, _ := inner.Attr("dataSource")
		ref, _ := inner.Attr("setReference")
		sv, _ := inner.Attr("setVariable")
		return bis.NewRetrieveSet(name, ds, ref, sv), nil
	case "atomicSQLSequence":
		children, err := unmarshalChildren(inner, r, nil)
		if err != nil {
			return nil, err
		}
		return bis.NewAtomicSequence(name, children...), nil
	}
	return nil, fmt.Errorf("bpelxml: unknown extension activity %s", inner.Name)
}

func unmarshalBpelxAssign(el *xdm.Node, name string) (engine.Activity, error) {
	act := orasoa.NewBpelxAssign(name)
	for _, c := range el.ChildElements() {
		from := strings.TrimSpace(c.ChildText("from"))
		to := c.FirstChildElement("to")
		if to == nil {
			return nil, fmt.Errorf("bpelxml: bpelx assign %s: missing to", name)
		}
		v, _ := to.Attr("variable")
		q, _ := to.Attr("query")
		switch localName(c.Name) {
		case "copy":
			act.Copy(from, v, q)
		case "insertAfter":
			act.InsertAfter(from, v, q)
		case "append":
			act.Append(from, v, q)
		case "remove":
			act.Remove(v, q)
		default:
			return nil, fmt.Errorf("bpelxml: bpelx assign %s: unknown op %s", name, c.Name)
		}
	}
	return act, nil
}

func unmarshalCondition(el *xdm.Node) (engine.Condition, error) {
	c := el.FirstChildElement("condition")
	if c == nil {
		return nil, fmt.Errorf("missing condition")
	}
	expr, err := xpath.Compile(strings.TrimSpace(c.TextContent()))
	if err != nil {
		return nil, err
	}
	return &engine.XPathCondition{Expr: expr}, nil
}

func unmarshalChildren(el *xdm.Node, r *Resolver, skip []string) ([]engine.Activity, error) {
	var out []engine.Activity
	for _, c := range el.ChildElements() {
		if slices.Contains(skip, localName(c.Name)) {
			continue
		}
		a, err := unmarshalActivity(c, r)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func singleBody(el *xdm.Node, r *Resolver, skip ...string) (engine.Activity, error) {
	children, err := unmarshalChildren(el, r, skip)
	if err != nil {
		return nil, err
	}
	if len(children) != 1 {
		return nil, fmt.Errorf("expected exactly one body activity, got %d", len(children))
	}
	return children[0], nil
}

func localName(n string) string {
	if i := strings.LastIndex(n, ":"); i >= 0 {
		return n[i+1:]
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
