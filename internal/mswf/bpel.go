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
// ExportBPEL maps a WF activity tree onto BPEL's sequence, while and
// invoke; the activities that have no BPEL equivalent (code, SQL
// database) become extensionActivity elements in the wf: namespace,
// which ImportBPEL maps back. Every other BPEL element is refused on
// import. Conditions and code handlers travel by *name* (the
// code-separation style), so only markup-authored or name-carrying
// workflows are exportable — inline Go closures cannot be serialized,
// mirroring how real WF workflows with inline C# conditions could not
// round-trip to portable BPEL either. Figure 6's markup round trip
// (internal/patterns/microsoft.go) issues every form, as the ledger
// (wf_dialect_test.go) records.

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
		el := xdm.NewElement("sequence")
		el.SetAttr("name", t.ActivityName)
		for _, c := range t.Children {
			ce, err := exportActivity(c)
			if err != nil {
				return nil, err
			}
			el.AppendChild(ce)
		}
		return el, nil
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
		if t.RowsAffectedVar != "" {
			c.SetAttr("rowsAffected", t.RowsAffectedVar)
		}
		if len(t.KeyColumns) > 0 {
			c.SetAttr("keys", strings.Join(t.KeyColumns, ","))
		}
		for _, p := range t.Parameters {
			pe := c.Element("wf:parameter")
			pe.SetAttr("name", p.Name)
			pe.SetAttr("variable", p.Variable)
		}
		return el, nil
	}
	return nil, fmt.Errorf("mswf: activity %T cannot be exported to BPEL", a)
}

// bpelAttrs is every element ImportBPEL reads, with the attributes it
// takes.
var bpelAttrs = map[string][]string{
	"process": {"name", "xmlns"}, "sequence": {"name"}, "while": {"name"},
	"condition": {"expressionLanguage"}, "invoke": {"name", "operation"},
	"toPart": {"part", "fromVariable"}, "fromPart": {"part", "toVariable"}, "extensionActivity": nil,
	"wf:code":        {"name", "handler"},
	"wf:sqlDatabase": {"name", "connectionString", "statement", "resultSet", "keys", "rowsAffected"},
	"wf:parameter":   {"name", "variable"},
}

// ImportBPEL parses a BPEL process document into a WF activity tree using
// the BPEL activity library mapping (the inverse of ExportBPEL). Plain
// BPEL produced by other tools is accepted for the supported subset.
func ImportBPEL(doc string) (Activity, error) {
	root, err := xdm.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("mswf: bpel: %w", err)
	}
	if root.Name != "process" {
		return nil, fmt.Errorf("mswf: bpel: root element is %s, want process", root.Name)
	}
	if err := refuseAttrs(root, bpelAttrs); err != nil {
		return nil, fmt.Errorf("mswf: bpel: %w", err)
	}
	children := root.ChildElements()
	if len(children) != 1 {
		return nil, fmt.Errorf("mswf: bpel: process must contain exactly one activity, got %d", len(children))
	}
	return importActivity(children[0])
}

// importActivity maps one BPEL activity element onto a WF activity. Every
// activity names itself, as ExportBPEL writes it.
func importActivity(el *xdm.Node) (Activity, error) {
	if el.Name == "extensionActivity" {
		return importExtension(el.FirstChildElement(""))
	}
	name, err := activityName(el)
	if err != nil {
		return nil, err
	}
	switch el.Name {
	case "sequence":
		var children []Activity
		for _, c := range el.ChildElements() {
			ca, err := importActivity(c)
			if err != nil {
				return nil, err
			}
			children = append(children, ca)
		}
		return &SequenceActivity{ActivityName: name, Children: children}, nil
	case "while":
		var rule string
		var body []Activity
		for _, c := range el.ChildElements() {
			if c.Name == "condition" {
				rule = strings.TrimSpace(c.TextContent())
				continue
			}
			ca, err := importActivity(c)
			if err != nil {
				return nil, err
			}
			body = append(body, ca)
		}
		if rule == "" || len(body) != 1 {
			return nil, fmt.Errorf("mswf: bpel: while %s needs a condition and one body activity", name)
		}
		return &WhileActivity{ActivityName: name, ConditionName: rule, Body: body[0]}, nil
	case "invoke":
		op, _ := el.Attr("operation")
		if op == "" {
			return nil, fmt.Errorf("mswf: bpel: invoke %s has no operation", name)
		}
		act := &InvokeWebServiceActivity{ActivityName: name,
			ServiceName: op, Inputs: map[string]string{}, Outputs: map[string]string{}}
		for _, c := range el.ChildElements() {
			part, _ := c.Attr("part")
			switch c.Name {
			case "toPart":
				act.Inputs[part], _ = c.Attr("fromVariable")
			case "fromPart":
				act.Outputs[part], _ = c.Attr("toVariable")
			}
		}
		return act, nil
	}
	return nil, fmt.Errorf("mswf: bpel: unsupported BPEL element %s", el.Name)
}

// importExtension maps the wf: element of an extensionActivity (nil when
// it is empty) onto a WF activity.
func importExtension(el *xdm.Node) (Activity, error) {
	if el == nil {
		return nil, fmt.Errorf("mswf: bpel: empty extensionActivity")
	}
	name, err := activityName(el)
	if err != nil {
		return nil, err
	}
	switch el.Name {
	case "wf:code":
		handler, _ := el.Attr("handler")
		if handler == "" {
			return nil, fmt.Errorf("mswf: bpel: wf:code %s has no handler", name)
		}
		return &CodeActivity{ActivityName: name, HandlerName: handler}, nil
	case "wf:sqlDatabase":
		conn, _ := el.Attr("connectionString")
		stmt, _ := el.Attr("statement")
		if conn == "" || stmt == "" {
			return nil, fmt.Errorf("mswf: bpel: wf:sqlDatabase %s needs a connectionString and a statement", name)
		}
		act := NewSQLDatabase(name, conn, stmt)
		act.readResultAttrs(el, "resultSet", "rowsAffected", "keys")
		for _, pe := range el.ChildElements() {
			pn, _ := pe.Attr("name")
			pv, _ := pe.Attr("variable")
			act.Param(pn, pv)
		}
		return act, nil
	}
	return nil, fmt.Errorf("mswf: bpel: unknown extension activity %s", el.Name)
}

// activityName returns the name el's activity takes, which it must have.
func activityName(el *xdm.Node) (string, error) {
	if name, _ := el.Attr("name"); name != "" {
		return name, nil
	}
	return "", fmt.Errorf("mswf: bpel: %s has no name", el.Name)
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
