package mswf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"wfsql/internal/dataset"
	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

// This file implements the persistence runtime service of Figure 5: the
// WF runtime "relies on a group of Runtime Services for, e.g., persisting
// a workflow's state". The service serializes the host-variable state of
// a workflow instance to XML and restores it, so a long-running workflow
// can be dehydrated between episodes. Supported variable types are the
// ones WF workflows in this reproduction use: strings, integers, floats,
// booleans, and DataSet objects (persisted with their change tracking).

// SaveState serializes the context's host variables to an XML document,
// streamed as it goes: no tree is built to hold it.
func SaveState(c *Context) string {
	names := c.VarNames()
	var w xdm.Writer
	w.Grow(32 + 48*len(names))
	w.Start("workflowState")
	for _, name := range names {
		v, _ := c.Get(name)
		w.Start("variable")
		w.Attr("name", name)
		switch t := v.(type) {
		case nil:
			w.Attr("type", "null")
		case string:
			w.Attr("type", "string")
			w.Text(t)
		case int:
			w.Attr("type", "int")
			w.Int(int64(t))
		case int64:
			w.Attr("type", "int")
			w.Int(t)
		case float64:
			w.Attr("type", "float")
			w.Text(strconv.FormatFloat(t, 'g', -1, 64))
		case bool:
			w.Attr("type", "bool")
			w.Text(strconv.FormatBool(t))
		case sqldb.Value:
			w.Attr("type", "sql:"+sqlType(t.K))
			w.Text(t.String())
		case *dataset.DataSet:
			w.Attr("type", "dataset")
			writeDataSet(&w, t)
		default:
			w.Attr("type", "string")
			w.Text(fmt.Sprint(t))
		}
		w.End("variable")
	}
	w.End("workflowState")
	return w.String()
}

// LoadState restores host variables from a SaveState document into a
// fresh context on the runtime.
func (rt *Runtime) LoadState(state string) (*Context, error) {
	root, err := xdm.Parse(state)
	if err != nil {
		return nil, fmt.Errorf("mswf: persistence: %w", err)
	}
	if root.Name != "workflowState" {
		return nil, fmt.Errorf("mswf: persistence: unexpected root %s", root.Name)
	}
	c := &Context{Runtime: rt, vars: map[string]any{}}
	for _, el := range root.ChildElements() {
		name, _ := el.Attr("name")
		typ, _ := el.Attr("type")
		text := el.TextContent()
		var v any
		switch {
		case typ == "null":
		case typ == "string":
			v = text
		case typ == "int":
			v, err = strconv.ParseInt(text, 10, 64)
		case typ == "float":
			v, err = strconv.ParseFloat(text, 64)
		case typ == "bool":
			v, err = strconv.ParseBool(text)
		case strings.HasPrefix(typ, "sql:"):
			v = parseSQLValue(strings.TrimPrefix(typ, "sql:"), text)
		case typ == "dataset":
			if inner := el.FirstChildElement("dataSet"); inner != nil {
				v, err = restoreDataSet(inner)
			} else {
				err = errors.New("missing dataSet element")
			}
		default:
			return nil, fmt.Errorf("mswf: persistence: variable %s has unknown type %q", name, typ)
		}
		if err != nil {
			return nil, fmt.Errorf("mswf: persistence: variable %s: %w", name, err)
		}
		c.vars[name] = v
	}
	return c, nil
}

func parseSQLValue(kind, text string) sqldb.Value {
	switch kind {
	case "null":
		return sqldb.Null()
	case "integer":
		i, _ := strconv.ParseInt(text, 10, 64)
		return sqldb.Int(i)
	case "float":
		f, _ := strconv.ParseFloat(text, 64)
		return sqldb.Float(f)
	case "boolean":
		return sqldb.Bool(strings.EqualFold(text, "true"))
	}
	return sqldb.Str(text)
}

// sqlTypes holds each value kind's lower-cased SQL type name: the type a
// persisted value or DataSet cell is written with.
var sqlTypes = func() (out [sqldb.KindBool + 1]string) {
	for k := range out {
		out[k] = strings.ToLower(sqldb.Kind(k).String())
	}
	return out
}()

func sqlType(k sqldb.Kind) string {
	if int(k) < len(sqlTypes) {
		return sqlTypes[k]
	}
	return strings.ToLower(k.String())
}

// persistDataSet serializes a DataSet with its change tracking: the
// "dataset" memo of a SQL database activity.
func persistDataSet(ds *dataset.DataSet) string {
	var w xdm.Writer
	writeDataSet(&w, ds)
	return w.String()
}

// writeDataSet streams a DataSet's dataSet element into w.
func writeDataSet(w *xdm.Writer, ds *dataset.DataSet) {
	w.Start("dataSet")
	for _, tn := range ds.TableNames() {
		t := ds.Table(tn)
		rows := t.AllRows()
		w.Grow(64 + len(rows)*(32+40*len(t.Columns)))
		w.Start("table")
		w.Attr("name", t.Name)
		w.Attr("columns", strings.Join(t.Columns, ","))
		if len(t.PrimaryKey) > 0 {
			w.Attr("keys", strings.Join(t.PrimaryKey, ","))
		}
		for _, r := range rows {
			w.Start("row")
			w.Attr("state", r.State().String())
			for _, v := range r.Values() {
				w.Start("c")
				w.Attr("type", sqlType(v.K))
				switch v.K {
				case sqldb.KindNull:
				case sqldb.KindInt:
					w.Int(v.I)
				default:
					w.Text(v.String())
				}
				w.End("c")
			}
			w.End("row")
		}
		w.End("table")
	}
	w.End("dataSet")
}

func restoreDataSet(el *xdm.Node) (*dataset.DataSet, error) {
	ds := dataset.New()
	for _, te := range el.ChildElements() {
		name, _ := te.Attr("name")
		colsAttr, _ := te.Attr("columns")
		cols := strings.Split(colsAttr, ",")
		t := dataset.NewDataTable(name, cols...)
		if keys, ok := te.Attr("keys"); ok {
			t.PrimaryKey = strings.Split(keys, ",")
		}
		ds.AddTable(t)
		for _, re := range te.ChildElements() {
			var vals []sqldb.Value
			for _, ce := range re.ChildElements() {
				typ, _ := ce.Attr("type")
				vals = append(vals, parseSQLValue(typ, ce.TextContent()))
			}
			if len(vals) != len(cols) {
				return nil, fmt.Errorf("row has %d cells for %d columns", len(vals), len(cols))
			}
			row, err := t.AddRow(vals...)
			if err != nil {
				return nil, err
			}
			state, _ := re.Attr("state")
			if err := applyRowState(t, row, state); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// applyRowState replays a persisted row state onto a freshly added row.
// Added rows stay Added; everything else is first accepted to Unchanged,
// then re-modified or re-deleted. (Original pre-modification values are
// not persisted — the adapter keys on the current values after restore,
// which is the documented limitation of this snapshot format.)
func applyRowState(t *dataset.DataTable, row *dataset.DataRow, state string) error {
	switch state {
	case dataset.Added.String():
		return nil
	case dataset.Unchanged.String(), "":
		row.AcceptRow() // this row only: AcceptChanges is table-wide
		return nil
	case dataset.Modified.String():
		row.AcceptRow()
		// Re-mark as modified by rewriting the first column with itself.
		if len(t.Columns) > 0 {
			return row.Set(t.Columns[0], row.Values()[0])
		}
		return nil
	case dataset.Deleted.String():
		row.AcceptRow()
		row.Delete()
		return nil
	}
	return fmt.Errorf("unknown row state %q", state)
}
