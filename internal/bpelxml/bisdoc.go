package bpelxml

import (
	"fmt"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/xdm"
)

// This file serializes the WID-level artifacts that surround a BIS
// process model: set reference variables, data source variables, and
// preparation/cleanup statements. These are not part of standard BPEL —
// they are emitted in a wid:artifacts extension block, mirroring how the
// Information Server plugin augments the process description.

// MarshalBISProcess serializes a BIS process builder (the WID design
// artifact) as a BPEL document with wid: extensions.
func MarshalBISProcess(b *bis.ProcessBuilder) (string, error) {
	p := &engine.Process{
		Name:      b.ProcessName(),
		Variables: b.VariableDecls(),
		Body:      b.BodyActivity(),
		Mode:      b.TransactionMode(),
	}
	root, err := marshalProcess(p)
	if err != nil {
		return "", err
	}
	arts := xdm.NewElement("wid:artifacts")
	for _, kv := range sortedMapPairs(b.DataSourceVars()) {
		e := arts.Element("wid:dataSourceVariable")
		e.SetAttr("name", kv[0])
		e.SetAttr("dataSource", kv[1])
	}
	for _, ref := range b.SetRefs() {
		e := arts.Element("wid:setReference")
		e.SetAttr("name", ref.Name)
		if ref.Kind == bis.ResultSetRef {
			e.SetAttr("kind", "result")
		} else {
			e.SetAttr("kind", "input")
			e.SetAttr("table", ref.Table)
		}
		if ref.Preparation != "" {
			e.ElementWithText("wid:preparation", ref.Preparation)
		}
		if ref.Cleanup != "" {
			e.ElementWithText("wid:cleanup", ref.Cleanup)
		}
	}
	prep, clean := b.LifecycleStatements()
	for _, ps := range prep {
		e := arts.Element("wid:preparation")
		e.SetAttr("dataSource", ps[0])
		e.SetText(ps[1])
	}
	for _, cs := range clean {
		e := arts.Element("wid:cleanup")
		e.SetAttr("dataSource", cs[0])
		e.SetText(cs[1])
	}
	if err := root.InsertChildAfter(nil, arts); err != nil {
		return "", err
	}
	return root.Indent(), nil
}

// UnmarshalBISProcess reconstructs a BIS process builder from a document
// produced by MarshalBISProcess.
func UnmarshalBISProcess(doc string, r *Resolver) (*bis.ProcessBuilder, error) {
	root, err := xdm.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("bpelxml: %w", err)
	}
	if root.Name != "process" {
		return nil, fmt.Errorf("bpelxml: root element %s, want process", root.Name)
	}
	if err := checkAttrs(root, acceptedAttrs["process"]); err != nil {
		return nil, err
	}
	name, _ := root.Attr("name")
	b := bis.NewProcess(name)
	var bodyEl *xdm.Node
	for _, el := range root.ChildElements() {
		switch localName(el.Name) {
		case "artifacts":
			if err := unmarshalArtifacts(el, b); err != nil {
				return nil, err
			}
		case "variables":
			for _, v := range el.ChildElements() {
				vd, err := unmarshalVariable(v)
				if err != nil {
					return nil, err
				}
				if vd.Kind == engine.XMLVar {
					b.XMLVariable(vd.Name, vd.InitXML)
				} else {
					b.Variable(vd.Name, vd.Init)
				}
			}
		default:
			if bodyEl != nil {
				return nil, fmt.Errorf("bpelxml: process has multiple body activities")
			}
			bodyEl = el
		}
	}
	if bodyEl == nil {
		return nil, fmt.Errorf("bpelxml: process has no body")
	}
	body, err := unmarshalActivity(bodyEl, r)
	if err != nil {
		return nil, err
	}
	b.Body(body)
	return b, nil
}

func unmarshalArtifacts(el *xdm.Node, b *bis.ProcessBuilder) error {
	for _, a := range el.ChildElements() {
		switch localName(a.Name) {
		case "dataSourceVariable":
			name, _ := a.Attr("name")
			ds, _ := a.Attr("dataSource")
			b.DataSourceVariable(name, ds)
		case "setReference":
			name, _ := a.Attr("name")
			kind, _ := a.Attr("kind")
			if kind == "result" {
				b.ResultSetReference(name)
			} else {
				table, _ := a.Attr("table")
				b.InputSetReference(name, table)
			}
			prep := a.ChildText("wid:preparation")
			clean := a.ChildText("wid:cleanup")
			if prep != "" || clean != "" {
				b.SetRefLifecycle(name, prep, clean)
			}
		case "preparation":
			ds, _ := a.Attr("dataSource")
			b.Preparation(ds, a.TextContent())
		case "cleanup":
			ds, _ := a.Attr("dataSource")
			b.Cleanup(ds, a.TextContent())
		default:
			return fmt.Errorf("bpelxml: unknown artifact %s", a.Name)
		}
	}
	return nil
}

func sortedMapPairs(m map[string]string) [][2]string {
	out := make([][2]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, [2]string{k, m[k]})
	}
	return out
}
