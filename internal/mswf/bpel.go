package mswf

import (
	"fmt"
	"sort"
	"strings"

	"wfsql/internal/xdm"
)

// This file implements the BPEL interoperability the paper attributes to
// the Workflow Foundation: "import and export tools for BPEL as well as
// an activity library representing BPEL are available. This way, one may
// also model workflows conforming to the BPEL specification."
//
// ExportBPEL maps a WF activity tree onto BPEL elements (sequence, while,
// if, invoke, empty); WF-specific activities that have no BPEL equivalent
// (code, SQL database) are emitted as BPEL extensionActivity elements in
// the wf: namespace, which ImportBPEL maps back. Conditions and code
// handlers travel by *name* (the code-separation style), so only
// markup-authored or name-carrying workflows are exportable — inline Go
// closures cannot be serialized, mirroring how real WF workflows with
// inline C# conditions could not round-trip to portable BPEL either.

// ExportBPEL serializes a WF activity tree as a BPEL process document.
func ExportBPEL(processName string, a Activity) (string, error) {
	root := xdm.NewElement("process")
	root.SetAttr("name", processName)
	root.SetAttr("xmlns", "http://docs.oasis-open.org/wsbpel/2.0/process/executable")
	el, err := exportActivity(a)
	if err != nil {
		return "", err
	}
	root.AppendChild(el)
	return root.Indent(), nil
}

func exportActivity(a Activity) (*xdm.Node, error) {
	switch t := a.(type) {
	case *SequenceActivity:
		return exportComposite("sequence", t.ActivityName, t.Children)
	case *ParallelActivity:
		return exportComposite("flow", t.ActivityName, t.Children)
	case *WhileActivity:
		if t.ConditionName == "" {
			return nil, fmt.Errorf("mswf: while %s has a code-only condition and cannot be exported to BPEL", t.ActivityName)
		}
		el := xdm.NewElement("while")
		el.SetAttr("name", t.ActivityName)
		cond := el.Element("condition")
		cond.SetAttr("expressionLanguage", "urn:wfsql:rule")
		cond.SetText(t.ConditionName)
		body, err := exportActivity(t.Body)
		if err != nil {
			return nil, err
		}
		el.AppendChild(body)
		return el, nil
	case *IfElseActivity:
		el := xdm.NewElement("if")
		el.SetAttr("name", t.ActivityName)
		for i, b := range t.Branches {
			var wrap *xdm.Node
			switch {
			case i == 0:
				wrap = el
			case b.Condition != nil:
				wrap = el.Element("elseif")
			default:
				wrap = el.Element("else")
			}
			if b.Condition != nil {
				if b.ConditionName == "" {
					return nil, fmt.Errorf("mswf: if %s has a code-only condition and cannot be exported to BPEL", t.ActivityName)
				}
				cond := wrap.Element("condition")
				cond.SetAttr("expressionLanguage", "urn:wfsql:rule")
				cond.SetText(b.ConditionName)
			}
			body, err := exportActivity(b.Body)
			if err != nil {
				return nil, err
			}
			wrap.AppendChild(body)
		}
		return el, nil
	case *InvokeWebServiceActivity:
		if t.ServiceName == "" {
			return nil, fmt.Errorf("mswf: invoke %s has a code-bound service and cannot be exported to BPEL", t.ActivityName)
		}
		el := xdm.NewElement("invoke")
		el.SetAttr("name", t.ActivityName)
		el.SetAttr("operation", t.ServiceName)
		for _, kv := range sortedPairs(t.Inputs) {
			p := el.Element("toPart")
			p.SetAttr("part", kv[0])
			p.SetAttr("fromVariable", kv[1])
		}
		for _, kv := range sortedPairs(t.Outputs) {
			p := el.Element("fromPart")
			p.SetAttr("part", kv[0])
			p.SetAttr("toVariable", kv[1])
		}
		return el, nil
	case *CodeActivity:
		if t.HandlerName == "" {
			return nil, fmt.Errorf("mswf: code activity %s has an inline handler and cannot be exported to BPEL", t.ActivityName)
		}
		el := xdm.NewElement("extensionActivity")
		c := el.Element("wf:code")
		c.SetAttr("name", t.ActivityName)
		c.SetAttr("handler", t.HandlerName)
		return el, nil
	case *SQLDatabaseActivity:
		el := xdm.NewElement("extensionActivity")
		c := el.Element("wf:sqlDatabase")
		c.SetAttr("name", t.ActivityName)
		c.SetAttr("connectionString", t.ConnectionString)
		c.SetAttr("statement", t.Statement)
		if t.ResultSetVar != "" {
			c.SetAttr("resultSet", t.ResultSetVar)
		}
		if t.ResultTable != "" {
			c.SetAttr("resultTable", t.ResultTable)
		}
		if t.RowsAffectedVar != "" {
			c.SetAttr("rowsAffected", t.RowsAffectedVar)
		}
		if len(t.KeyColumns) > 0 {
			c.SetAttr("keys", strings.Join(t.KeyColumns, ","))
		}
		for _, p := range t.Parameters {
			if p.Variable == "" {
				return nil, fmt.Errorf("mswf: sql activity %s has a literal parameter and cannot be exported", t.ActivityName)
			}
			pe := c.Element("wf:parameter")
			pe.SetAttr("name", p.Name)
			pe.SetAttr("variable", p.Variable)
		}
		return el, nil
	case *TerminateActivity:
		el := xdm.NewElement("exit")
		el.SetAttr("name", t.ActivityName)
		if t.Reason != "" {
			el.SetAttr("wf:reason", t.Reason)
		}
		return el, nil
	}
	return nil, fmt.Errorf("mswf: activity %T cannot be exported to BPEL", a)
}

// ImportBPEL parses a BPEL process document into a WF activity tree using
// the BPEL activity library mapping (the inverse of ExportBPEL). Plain
// BPEL produced by other tools is accepted for the supported subset.
func ImportBPEL(doc string) (Activity, error) {
	root, err := xdm.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("mswf: bpel: %w", err)
	}
	if localName(root.Name) != "process" {
		return nil, fmt.Errorf("mswf: bpel: root element is %s, want process", root.Name)
	}
	children := root.ChildElements()
	if len(children) != 1 {
		return nil, fmt.Errorf("mswf: bpel: process must contain exactly one activity, got %d", len(children))
	}
	return importActivity(children[0])
}

// exportComposite exports a sequence or flow: its children in order.
func exportComposite(elem, name string, children []Activity) (*xdm.Node, error) {
	el := xdm.NewElement(elem)
	el.SetAttr("name", name)
	for _, c := range children {
		ce, err := exportActivity(c)
		if err != nil {
			return nil, err
		}
		el.AppendChild(ce)
	}
	return el, nil
}

func importActivity(el *xdm.Node) (Activity, error) {
	name, _ := el.Attr("name")
	switch localName(el.Name) {
	case "sequence", "flow":
		var children []Activity
		for _, c := range el.ChildElements() {
			ca, err := importActivity(c)
			if err != nil {
				return nil, err
			}
			children = append(children, ca)
		}
		if localName(el.Name) == "flow" {
			return &ParallelActivity{ActivityName: defaulted(name, "flow"), Children: children}, nil
		}
		return &SequenceActivity{ActivityName: defaulted(name, "sequence"), Children: children}, nil
	case "empty":
		return &CodeActivity{ActivityName: defaulted(name, "empty"),
			Handler: func(*Context) error { return nil }}, nil
	case "exit":
		reason, _ := el.Attr("wf:reason")
		return &TerminateActivity{ActivityName: defaulted(name, "exit"), Reason: reason}, nil
	case "while":
		condEl := el.FirstChildElement("condition")
		if condEl == nil {
			return nil, fmt.Errorf("mswf: bpel: while %s has no condition", name)
		}
		ruleName := strings.TrimSpace(condEl.TextContent())
		body, err := importBranchBody(el, "while "+name)
		if err != nil {
			return nil, err
		}
		return &WhileActivity{
			ActivityName:  defaulted(name, "while"),
			ConditionName: ruleName,
			Condition:     ruleByName(ruleName),
			Body:          body,
		}, nil
	case "if":
		act := &IfElseActivity{ActivityName: defaulted(name, "if")}
		// First branch: condition + activity directly under <if>.
		var firstCondName string
		var firstBody Activity
		for _, c := range el.ChildElements() {
			switch localName(c.Name) {
			case "condition":
				firstCondName = strings.TrimSpace(c.TextContent())
			case "elseif":
				condEl := c.FirstChildElement("condition")
				if condEl == nil {
					return nil, fmt.Errorf("mswf: bpel: elseif without condition in %s", name)
				}
				rn := strings.TrimSpace(condEl.TextContent())
				body, err := importBranchBody(c, "branch")
				if err != nil {
					return nil, err
				}
				act.Branches = append(act.Branches, IfElseBranch{
					Condition: ruleByName(rn), ConditionName: rn, Body: body})
			case "else":
				body, err := importBranchBody(c, "branch")
				if err != nil {
					return nil, err
				}
				act.Branches = append(act.Branches, IfElseBranch{Body: body})
			default:
				ca, err := importActivity(c)
				if err != nil {
					return nil, err
				}
				firstBody = ca
			}
		}
		if firstBody == nil || firstCondName == "" {
			return nil, fmt.Errorf("mswf: bpel: if %s missing first branch", name)
		}
		act.Branches = append([]IfElseBranch{{
			Condition: ruleByName(firstCondName), ConditionName: firstCondName, Body: firstBody,
		}}, act.Branches...)
		return act, nil
	case "invoke":
		op, _ := el.Attr("operation")
		if op == "" {
			return nil, fmt.Errorf("mswf: bpel: invoke %s has no operation", name)
		}
		act := &InvokeWebServiceActivity{ActivityName: defaulted(name, "invoke"),
			ServiceName: op, Inputs: map[string]string{}, Outputs: map[string]string{}}
		for _, c := range el.ChildElements() {
			part, _ := c.Attr("part")
			switch localName(c.Name) {
			case "toPart":
				v, _ := c.Attr("fromVariable")
				act.Inputs[part] = v
			case "fromPart":
				v, _ := c.Attr("toVariable")
				act.Outputs[part] = v
			}
		}
		return act, nil
	case "extensionActivity":
		inner := el.FirstChildElement("")
		if inner == nil {
			return nil, fmt.Errorf("mswf: bpel: empty extensionActivity")
		}
		iname, _ := inner.Attr("name")
		switch localName(inner.Name) {
		case "code":
			handler, _ := inner.Attr("handler")
			if handler == "" {
				return nil, fmt.Errorf("mswf: bpel: wf:code without handler")
			}
			return &CodeActivity{ActivityName: defaulted(iname, "code"), HandlerName: handler}, nil
		case "sqlDatabase":
			conn, _ := inner.Attr("connectionString")
			stmt, _ := inner.Attr("statement")
			if conn == "" || stmt == "" {
				return nil, fmt.Errorf("mswf: bpel: wf:sqlDatabase missing connectionString or statement")
			}
			act := NewSQLDatabase(defaulted(iname, "sqlDatabase"), conn, stmt)
			act.readResultAttrs(inner, "resultSet", "resultTable", "rowsAffected", "keys")
			for _, pe := range inner.ChildElements() {
				pn, _ := pe.Attr("name")
				pv, _ := pe.Attr("variable")
				act.Param(pn, pv)
			}
			return act, nil
		}
		return nil, fmt.Errorf("mswf: bpel: unknown extension activity %s", inner.Name)
	}
	return nil, fmt.Errorf("mswf: bpel: unsupported BPEL element %s", el.Name)
}

// importBranchBody imports the one activity beside el's condition; what
// names el in the error when there is none.
func importBranchBody(el *xdm.Node, what string) (Activity, error) {
	var body Activity
	for _, c := range el.ChildElements() {
		if localName(c.Name) == "condition" {
			continue
		}
		ca, err := importActivity(c)
		if err != nil {
			return nil, err
		}
		body = ca
	}
	if body == nil {
		return nil, fmt.Errorf("mswf: bpel: %s has no body", what)
	}
	return body, nil
}

// ruleByName builds a condition resolving the named rule at run time.
func ruleByName(name string) RuleCondition {
	return func(c *Context) (bool, error) {
		r, err := c.Runtime.rule(name)
		if err != nil {
			return false, err
		}
		return r(c)
	}
}

func defaulted(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// sortedPairs returns map entries as sorted [key, value] pairs for
// deterministic export.
func sortedPairs(m map[string]string) [][2]string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][2]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, [2]string{k, m[k]})
	}
	return out
}
