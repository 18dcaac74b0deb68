package mswf

import (
	"fmt"
	"slices"
	"strings"

	"wfsql/internal/xdm"
)

// This file implements the markup-only and code-separation authoring
// modes: workflows described in XOML-style XML markup, loaded directly
// into the runtime engine. Code handlers, rule conditions, and services
// referenced from markup are resolved by name from the runtime — that
// combination of markup structure plus code implementations is the
// code-separation authoring style.
//
// The elements and attributes, each issued by Figure 6's markup
// (internal/patterns/microsoft.go) or cmd/wfrun's sample, as the ledger
// (wf_dialect_test.go) records; every other element and attribute is
// refused:
//
//	<SequenceActivity x:Name="...">children</SequenceActivity>
//	<WhileActivity x:Name="..." Condition="rule:Name">body</WhileActivity>
//	<CodeActivity x:Name="..." Handler="Name"/>
//	<InvokeWebServiceActivity x:Name="..." Service="Name">
//	    <Input Part="..." Variable="..."/>
//	    <Output Part="..." Variable="..."/>
//	</InvokeWebServiceActivity>
//	<SQLDatabaseActivity x:Name="..." ConnectionString="..."
//	        Statement="..." ResultSet="var" Keys="a,b" RowsAffected="var">
//	    <Parameter Name="@p" Variable="hostVar"/>
//	</SQLDatabaseActivity>

// xomlAttrs is every element LoadXOML reads, with the attributes it
// takes.
var xomlAttrs = map[string][]string{
	"SequenceActivity": {"x:Name"}, "WhileActivity": {"x:Name", "Condition"},
	"CodeActivity": {"x:Name", "Handler"}, "InvokeWebServiceActivity": {"x:Name", "Service"},
	"Input": {"Part", "Variable"}, "Output": {"Part", "Variable"},
	"SQLDatabaseActivity": {"x:Name", "ConnectionString", "Statement", "ResultSet", "Keys", "RowsAffected"},
	"Parameter":           {"Name", "Variable"},
}

// LoadXOML parses a XOML document into an executable activity tree.
func LoadXOML(markup string) (Activity, error) {
	root, err := xdm.Parse(markup)
	if err != nil {
		return nil, fmt.Errorf("mswf: xoml: %w", err)
	}
	if err := refuseAttrs(root, xomlAttrs); err != nil {
		return nil, fmt.Errorf("mswf: xoml: %w", err)
	}
	return buildActivity(root)
}

// refuseAttrs fails on an attribute, anywhere under el, that accepted
// does not list for its element, so a misspelt or cut attribute is not
// dropped without a word. An element accepted does not list is left to
// the loader to refuse.
func refuseAttrs(el *xdm.Node, accepted map[string][]string) error {
	if names, ok := accepted[el.Name]; ok {
		for _, a := range el.Attrs {
			if !slices.Contains(names, a.Name) {
				return fmt.Errorf("%s does not take attribute %s", el.Name, a.Name)
			}
		}
	}
	for _, c := range el.ChildElements() {
		if err := refuseAttrs(c, accepted); err != nil {
			return err
		}
	}
	return nil
}

// MustLoadXOML parses markup, panicking on error (for fixtures).
func MustLoadXOML(markup string) Activity {
	a, err := LoadXOML(markup)
	if err != nil {
		panic(err)
	}
	return a
}

func buildActivity(el *xdm.Node) (Activity, error) {
	name, ok := el.Attr("x:Name")
	if !ok {
		return nil, fmt.Errorf("mswf: xoml: %s needs an x:Name", el.Name)
	}
	switch el.Name {
	case "SequenceActivity":
		children, err := buildChildren(el)
		if err != nil {
			return nil, err
		}
		return &SequenceActivity{ActivityName: name, Children: children}, nil
	case "WhileActivity":
		spec, _ := el.Attr("Condition")
		rule, ok := strings.CutPrefix(spec, "rule:")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: WhileActivity %s needs a Condition of the form rule:Name", name)
		}
		body, err := buildChildren(el)
		if err != nil {
			return nil, err
		}
		if len(body) != 1 {
			return nil, fmt.Errorf("mswf: xoml: WhileActivity %s needs one body activity, has %d", name, len(body))
		}
		return &WhileActivity{ActivityName: name, ConditionName: rule, Body: body[0]}, nil
	case "CodeActivity":
		handler, ok := el.Attr("Handler")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: CodeActivity %s needs a Handler attribute", name)
		}
		return &CodeActivity{ActivityName: name, HandlerName: handler}, nil
	case "InvokeWebServiceActivity":
		svc, ok := el.Attr("Service")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: InvokeWebServiceActivity %s needs a Service attribute", name)
		}
		act := &InvokeWebServiceActivity{ActivityName: name, ServiceName: svc,
			Inputs: map[string]string{}, Outputs: map[string]string{}}
		for _, io := range el.ChildElements() {
			part, _ := io.Attr("Part")
			variable, _ := io.Attr("Variable")
			if part == "" || variable == "" {
				return nil, fmt.Errorf("mswf: xoml: %s: Input/Output needs Part and Variable", name)
			}
			switch io.Name {
			case "Input":
				act.Inputs[part] = variable
			case "Output":
				act.Outputs[part] = variable
			default:
				return nil, fmt.Errorf("mswf: xoml: unexpected %s in %s", io.Name, name)
			}
		}
		return act, nil
	case "SQLDatabaseActivity":
		conn, ok := el.Attr("ConnectionString")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: SQLDatabaseActivity %s needs a ConnectionString", name)
		}
		stmt, ok := el.Attr("Statement")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: SQLDatabaseActivity %s needs a Statement", name)
		}
		act := NewSQLDatabase(name, conn, stmt)
		act.readResultAttrs(el, "ResultSet", "RowsAffected", "Keys")
		for _, pe := range el.ChildElements() {
			if pe.Name != "Parameter" {
				return nil, fmt.Errorf("mswf: xoml: unexpected %s in %s", pe.Name, name)
			}
			pn, _ := pe.Attr("Name")
			pv, _ := pe.Attr("Variable")
			if pn == "" || pv == "" {
				return nil, fmt.Errorf("mswf: xoml: %s: Parameter needs Name and Variable", name)
			}
			act.Param(pn, pv)
		}
		return act, nil
	}
	return nil, fmt.Errorf("mswf: xoml: unknown activity element %s", el.Name)
}

// readResultAttrs sets the activity's optional result settings from
// el's attributes, named as the markup spells them.
func (a *SQLDatabaseActivity) readResultAttrs(el *xdm.Node, resultSet, rowsAffected, keys string) {
	for attr, field := range map[string]*string{resultSet: &a.ResultSetVar, rowsAffected: &a.RowsAffectedVar} {
		if v, ok := el.Attr(attr); ok {
			*field = v
		}
	}
	if v, ok := el.Attr(keys); ok {
		for _, k := range strings.Split(v, ",") {
			a.KeyColumns = append(a.KeyColumns, strings.TrimSpace(k))
		}
	}
}

func buildChildren(el *xdm.Node) ([]Activity, error) {
	var out []Activity
	for _, c := range el.ChildElements() {
		a, err := buildActivity(c)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
