package mswf

import (
	"fmt"
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
// Supported elements:
//
//	<SequenceActivity x:Name="...">children</SequenceActivity>
//	<ParallelActivity x:Name="...">children</ParallelActivity>
//	<WhileActivity x:Name="..." Condition="rule:Name">body</WhileActivity>
//	<IfElseActivity x:Name="...">
//	    <IfElseBranch Condition="rule:Name">body</IfElseBranch>
//	    <IfElseBranch>else-body</IfElseBranch>
//	</IfElseActivity>
//	<CodeActivity x:Name="..." Handler="Name"/>
//	<TerminateActivity x:Name="..." Reason="..."/>
//	<InvokeWebServiceActivity x:Name="..." Service="Name">
//	    <Input Part="..." Variable="..."/>
//	    <Output Part="..." Variable="..."/>
//	</InvokeWebServiceActivity>
//	<SQLDatabaseActivity x:Name="..." ConnectionString="..."
//	        Statement="..." ResultSet="var" ResultTable="t"
//	        Keys="a,b" RowsAffected="var">
//	    <Parameter Name="@p" Variable="hostVar"/>
//	</SQLDatabaseActivity>

// LoadXOML parses a XOML document into an executable activity tree.
func LoadXOML(markup string) (Activity, error) {
	root, err := xdm.Parse(markup)
	if err != nil {
		return nil, fmt.Errorf("mswf: xoml: %w", err)
	}
	return buildActivity(root)
}

// MustLoadXOML parses markup, panicking on error (for fixtures).
func MustLoadXOML(markup string) Activity {
	a, err := LoadXOML(markup)
	if err != nil {
		panic(err)
	}
	return a
}

func activityName(el *xdm.Node) string {
	if v, ok := el.Attr("x:Name"); ok {
		return v
	}
	if v, ok := el.Attr("Name"); ok {
		return v
	}
	return strings.TrimSuffix(el.Name, "Activity")
}

func buildActivity(el *xdm.Node) (Activity, error) {
	name := activityName(el)
	switch localName(el.Name) {
	case "SequenceActivity", "ParallelActivity":
		children, err := buildChildren(el)
		if err != nil {
			return nil, err
		}
		if localName(el.Name) == "ParallelActivity" {
			return &ParallelActivity{ActivityName: name, Children: children}, nil
		}
		return &SequenceActivity{ActivityName: name, Children: children}, nil
	case "WhileActivity":
		cond, condName, err := buildCondition(el)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		body, err := buildSingleChild(el, name)
		if err != nil {
			return nil, err
		}
		return &WhileActivity{ActivityName: name, Condition: cond, ConditionName: condName, Body: body}, nil
	case "IfElseActivity":
		act := &IfElseActivity{ActivityName: name}
		for _, branchEl := range el.ChildElements() {
			if localName(branchEl.Name) != "IfElseBranch" {
				return nil, fmt.Errorf("mswf: xoml: %s may only contain IfElseBranch, got %s", name, branchEl.Name)
			}
			body, err := buildSingleChild(branchEl, name)
			if err != nil {
				return nil, err
			}
			var cond RuleCondition
			var condName string
			if _, ok := branchEl.Attr("Condition"); ok {
				cond, condName, err = buildCondition(branchEl)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
			}
			act.Branches = append(act.Branches, IfElseBranch{Condition: cond, ConditionName: condName, Body: body})
		}
		if len(act.Branches) == 0 {
			return nil, fmt.Errorf("mswf: xoml: %s has no branches", name)
		}
		return act, nil
	case "CodeActivity":
		handler, ok := el.Attr("Handler")
		if !ok {
			return nil, fmt.Errorf("mswf: xoml: CodeActivity %s needs a Handler attribute", name)
		}
		return &CodeActivity{ActivityName: name, HandlerName: handler}, nil
	case "TerminateActivity":
		reason, _ := el.Attr("Reason")
		return &TerminateActivity{ActivityName: name, Reason: reason}, nil
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
			switch localName(io.Name) {
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
		act.readResultAttrs(el, "ResultSet", "ResultTable", "RowsAffected", "Keys")
		for _, pe := range el.ChildElements() {
			if localName(pe.Name) != "Parameter" {
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
func (a *SQLDatabaseActivity) readResultAttrs(el *xdm.Node, resultSet, resultTable, rowsAffected, keys string) {
	for attr, field := range map[string]*string{resultSet: &a.ResultSetVar, resultTable: &a.ResultTable, rowsAffected: &a.RowsAffectedVar} {
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

func buildSingleChild(el *xdm.Node, name string) (Activity, error) {
	children, err := buildChildren(el)
	if err != nil {
		return nil, err
	}
	switch len(children) {
	case 0:
		return nil, fmt.Errorf("mswf: xoml: %s has no body", name)
	case 1:
		return children[0], nil
	default:
		return &SequenceActivity{ActivityName: name + "_body", Children: children}, nil
	}
}

// buildCondition resolves a Condition attribute: "rule:Name" defers to a
// runtime-registered rule (code-separation). It returns the rule name for
// export round-tripping.
func buildCondition(el *xdm.Node) (RuleCondition, string, error) {
	spec, ok := el.Attr("Condition")
	if !ok {
		return nil, "", fmt.Errorf("missing Condition attribute")
	}
	ruleName, ok := strings.CutPrefix(spec, "rule:")
	if !ok {
		return nil, "", fmt.Errorf("condition %q must use the rule:Name form", spec)
	}
	return func(c *Context) (bool, error) {
		r, err := c.Runtime.rule(ruleName)
		if err != nil {
			return false, err
		}
		return r(c)
	}, ruleName, nil
}

func localName(n string) string {
	if i := strings.LastIndex(n, ":"); i >= 0 {
		return n[i+1:]
	}
	return n
}
