// Package bpelxml serializes BIS process models to BPEL XML documents
// and loads them back — the artifact the paper's design tools exchange:
// "As a result of this design step, we get a description of the process
// in BPEL. From this description the tool generates code that is
// deployed and executed on the WebSphere Process Server."
//
// The standard BPEL activities the paper's processes use map to their
// standard elements (sequence, while, assign, invoke). The IBM
// information service activities are emitted as BPEL extensionActivity
// elements under the wid: prefix (SQL, retrieve set, atomic SQL
// sequence), and so are Java snippets, which travel by name and are
// resolved from a Resolver at load time (the same code-separation style
// the WF XOML loader uses). A document comes from outside the program, so
// anything else in it is refused. bpel_dialect_test.go lists every
// element and attribute with the file that issues it.
package bpelxml

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// Resolver supplies the snippet handlers a BPEL document references by
// name.
type Resolver struct {
	Snippets map[string]func(ctx *engine.Ctx) error
}

// acceptedAttrs is every element the reader accepts, by local name, with
// the attributes it reads. Any other attribute is refused (checkAttrs):
// dropped without a word, a misspelt resultSetReference would lose a
// query's result. bpel_dialect_test.go checks each set against the
// element's ledger rows.
var acceptedAttrs = map[string][]string{
	"process": {"name", "xmlns"}, "variables": nil, "variable": {"name", "type", "init"},
	"sequence": {"name"}, "while": {"name"}, "condition": nil,
	"assign": {"name"}, "copy": nil, "from": nil, "to": {"variable", "query"},
	"invoke": {"name", "operation"}, "toPart": {"part", "expression"}, "fromPart": {"part", "toVariable"},
	"extensionActivity": nil,
	"sql":               {"name", "dataSource", "resultSetReference"},
	"retrieveSet":       {"name", "dataSource", "setReference", "setVariable"},
	"atomicSQLSequence": {"name"}, "javaSnippet": {"name"},
	"artifacts": nil, "dataSourceVariable": {"name", "dataSource"}, "setReference": {"name", "kind", "table"},
	"preparation": {"dataSource"}, "cleanup": {"dataSource"},
}

// checkAttrs refuses, in the tree under el, an attribute its element
// does not accept; allowed is el's own. The statements inside a set
// reference accept none, and an element the reader does not know is
// refused where it is read.
func checkAttrs(el *xdm.Node, allowed []string) error {
	for _, a := range el.Attrs {
		if !slices.Contains(allowed, a.Name) {
			return fmt.Errorf("bpelxml: %s: unsupported attribute %s", el.Name, a.Name)
		}
	}
	for _, c := range el.ChildElements() {
		next, known := acceptedAttrs[localName(c.Name)]
		if localName(el.Name) == "setReference" {
			next = nil
		}
		if !known {
			continue
		}
		if err := checkAttrs(c, next); err != nil {
			return err
		}
	}
	return nil
}

// marshalProcess serializes a plain engine process (variables + body).
func marshalProcess(p *engine.Process) (*xdm.Node, error) {
	if p.Mode != engine.LongRunning {
		return nil, fmt.Errorf("bpelxml: process %s: a %s process cannot be serialized", p.Name, p.Mode)
	}
	root := xdm.NewElement("process")
	root.SetAttr("name", p.Name)
	root.SetAttr("xmlns", "http://docs.oasis-open.org/wsbpel/2.0/process/executable")
	vars := root.Element("variables")
	for _, vd := range p.Variables {
		v := vars.Element("variable")
		v.SetAttr("name", vd.Name)
		if vd.Kind == engine.XMLVar {
			if vd.InitXML != "" {
				return nil, fmt.Errorf("bpelxml: variable %s: an initial document cannot be serialized", vd.Name)
			}
			v.SetAttr("type", "xml")
		} else {
			v.SetAttr("type", "string")
			if vd.Init != "" {
				v.SetAttr("init", vd.Init)
			}
		}
	}
	if err := marshalInto(root, p.Body); err != nil {
		return nil, err
	}
	return root, nil
}

func unmarshalVariable(v *xdm.Node) (engine.VarDecl, error) {
	name, _ := v.Attr("name")
	if len(v.ChildElements()) > 0 {
		return engine.VarDecl{}, fmt.Errorf("bpelxml: variable %s: unsupported initial document", name)
	}
	typ, _ := v.Attr("type")
	if typ == "xml" {
		return engine.VarDecl{Name: name, Kind: engine.XMLVar}, nil
	}
	init, _ := v.Attr("init")
	return engine.VarDecl{Name: name, Kind: engine.ScalarVar, Init: init}, nil
}

// --- Activity marshalling ---

func marshalActivity(a engine.Activity) (*xdm.Node, error) {
	switch t := a.(type) {
	case *engine.Sequence:
		return marshalChildren(xdm.NewElement("sequence"), t.ActivityName, t.Children)
	case *engine.While:
		el := xdm.NewElement("while")
		el.SetAttr("name", t.ActivityName)
		el.Element("condition").SetText(t.Condition.Expr.Source())
		if err := marshalInto(el, t.Body); err != nil {
			return nil, err
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
	case *engine.Snippet:
		el := xdm.NewElement("extensionActivity")
		el.Element("wid:javaSnippet").SetAttr("name", t.ActivityName)
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
		if _, err := marshalChildren(el.Element("wid:atomicSQLSequence"), t.ActivityName, t.Children); err != nil {
			return nil, err
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

// marshalChildren names el and appends the children's elements.
func marshalChildren(el *xdm.Node, name string, children []engine.Activity) (*xdm.Node, error) {
	el.SetAttr("name", name)
	for _, c := range children {
		if err := marshalInto(el, c); err != nil {
			return nil, err
		}
	}
	return el, nil
}

// --- Activity unmarshalling ---

func unmarshalActivity(el *xdm.Node, r *Resolver) (engine.Activity, error) {
	name, _ := el.Attr("name")
	switch localName(el.Name) {
	case "sequence":
		children, err := unmarshalChildren(el, r)
		if err != nil {
			return nil, err
		}
		return engine.NewSequence(name, children...), nil
	case "while":
		kids := el.ChildElements()
		if len(kids) != 2 || localName(kids[0].Name) != "condition" {
			return nil, fmt.Errorf("bpelxml: while %s: want a condition and one body activity", name)
		}
		cond, err := xpath.Compile(strings.TrimSpace(kids[0].TextContent()))
		if err != nil {
			return nil, fmt.Errorf("bpelxml: while %s: %w", name, err)
		}
		body, err := unmarshalActivity(kids[1], r)
		if err != nil {
			return nil, err
		}
		return engine.NewWhile(name, &engine.Condition{Expr: cond}, body), nil
	case "assign":
		act := engine.NewAssign(name)
		for _, c := range el.ChildElements() {
			if c.Name != "copy" {
				return nil, fmt.Errorf("bpelxml: assign %s: unsupported element %s", name, c.Name)
			}
			from := strings.TrimSpace(c.ChildText("from"))
			to := c.FirstChildElement("to")
			if from == "" || to == nil {
				return nil, fmt.Errorf("bpelxml: assign %s: copy needs from and to", name)
			}
			cp := engine.CopySpec{}
			cp.ToVar, _ = to.Attr("variable")
			var err error
			if cp.From, err = compileIn("assign", name, from); err != nil {
				return nil, err
			}
			if q, ok := to.Attr("query"); ok {
				if cp.ToPath, err = compileIn("assign", name, q); err != nil {
					return nil, err
				}
			}
			act.Copies = append(act.Copies, cp)
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
				e, err := compileIn("invoke", name, expr)
				if err != nil {
					return nil, err
				}
				act.Inputs[part] = e
			case "fromPart":
				v, _ := c.Attr("toVariable")
				act.Out(part, v)
			default:
				return nil, fmt.Errorf("bpelxml: invoke %s: unsupported element %s", name, c.Name)
			}
		}
		return act, nil
	case "extensionActivity":
		inner := el.FirstChildElement("")
		if inner == nil {
			return nil, fmt.Errorf("bpelxml: empty extensionActivity")
		}
		return unmarshalExtension(inner, r)
	}
	return nil, fmt.Errorf("bpelxml: unsupported element %s", el.Name)
}

// compileIn compiles an expression of a loaded document, naming the
// activity and the expression when it does not compile.
func compileIn(kind, name, src string) (*xpath.Expr, error) {
	e, err := xpath.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("bpelxml: %s %s: expression %q: %w", kind, name, src, err)
	}
	return e, nil
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
		children, err := unmarshalChildren(inner, r)
		if err != nil {
			return nil, err
		}
		return bis.NewAtomicSequence(name, children...), nil
	}
	return nil, fmt.Errorf("bpelxml: unknown extension activity %s", inner.Name)
}

func unmarshalChildren(el *xdm.Node, r *Resolver) ([]engine.Activity, error) {
	var out []engine.Activity
	for _, c := range el.ChildElements() {
		a, err := unmarshalActivity(c, r)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
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
