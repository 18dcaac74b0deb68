// Package rowset implements the proprietary "XML RowSet" materialized-set
// representation that, per the paper, both IBM's Business Integration
// Suite and Oracle's SOA Suite use for set-oriented data in the process
// space: each output tuple of a query becomes a numbered XML element with
// a text node for every attribute value.
//
// A RowSet is a data cache in the process space holding no connection to
// the original data source (the paper's Set Retrieval Pattern); the
// Sequential/Random Set Access, Tuple IUD, and Synchronization patterns
// operate on it.
package rowset

import (
	"fmt"
	"strconv"

	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

// RowElement is the element name used for each tuple.
const RowElement = "Row"

// RootElement is the element name of the set container.
const RootElement = "RowSet"

// NumAttr is the attribute carrying the 1-based tuple number.
const NumAttr = "num"

// FromResult materializes a sqldb result set as an XML RowSet document,
// built in one xdm.Block.
func FromResult(r *sqldb.Result) (*xdm.Node, error) {
	if r == nil || !r.IsQuery() {
		return nil, fmt.Errorf("rowset: statement returned no result set")
	}
	// The root, a Row per tuple, an element per cell and a text node per
	// non-NULL cell; a num per Row and a null marker per NULL cell.
	cells, nulls := len(r.Rows)*len(r.Columns), 0
	for _, row := range r.Rows {
		for ci := range r.Columns {
			if row[ci].IsNull() {
				nulls++
			}
		}
	}
	b := xdm.NewBlock(1+len(r.Rows)+2*cells-nulls, len(r.Rows)+nulls)
	root := b.Element(nil, RootElement, len(r.Rows), 0)
	for i, row := range r.Rows {
		el := b.Element(root, RowElement, len(r.Columns), 1)
		el.SetAttr(NumAttr, strconv.Itoa(i+1))
		for ci, col := range r.Columns {
			if row[ci].IsNull() {
				b.Element(el, col, 0, 1).SetAttr("null", "true")
			} else {
				b.Text(b.Element(el, col, 1, 0), row[ci].String())
			}
		}
	}
	return root, nil
}

// ToValues converts a RowSet document back to column names and sqldb value
// rows, using the first row's element order as the column order. Values
// are returned as strings except cells marked null.
func ToValues(root *xdm.Node) (columns []string, rows [][]sqldb.Value, err error) {
	if root == nil || root.Name != RootElement {
		return nil, nil, fmt.Errorf("rowset: not a RowSet document")
	}
	for _, rowEl := range root.ChildElements() {
		if rowEl.Name != RowElement {
			return nil, nil, fmt.Errorf("rowset: unexpected element %s", rowEl.Name)
		}
		cells := rowEl.ChildElements()
		if columns == nil {
			for _, c := range cells {
				columns = append(columns, c.Name)
			}
		}
		row := make([]sqldb.Value, 0, len(cells))
		for _, c := range cells {
			if v, ok := c.Attr("null"); ok && v == "true" {
				row = append(row, sqldb.Null())
			} else {
				row = append(row, sqldb.Str(c.TextContent()))
			}
		}
		rows = append(rows, row)
	}
	return columns, rows, nil
}

// Count returns the number of tuples in the RowSet.
func Count(root *xdm.Node) int {
	n := 0
	for _, c := range root.Children {
		if c.Kind == xdm.ElementNode && c.Name == RowElement {
			n++
		}
	}
	return n
}

// Rows returns the tuple elements in order.
func Rows(root *xdm.Node) []*xdm.Node {
	var out []*xdm.Node
	for _, c := range root.ChildElements() {
		if c.Name == RowElement {
			out = append(out, c)
		}
	}
	return out
}

// Row returns the i-th (0-based) tuple element, or nil, without building
// the row list: a cursor calls it once per tuple.
func Row(root *xdm.Node, i int) *xdm.Node {
	if i < 0 {
		return nil
	}
	for _, c := range root.Children {
		if c.Kind == xdm.ElementNode && c.Name == RowElement {
			if i == 0 {
				return c
			}
			i--
		}
	}
	return nil
}

// Field returns the text of the named cell of a tuple element.
func Field(row *xdm.Node, name string) string {
	return row.ChildText(name)
}

// SetField updates (or adds) the named cell of a tuple element.
func SetField(row *xdm.Node, name, value string) {
	if c := row.FirstChildElement(name); c != nil {
		c.SetText(value)
		return
	}
	row.ElementWithText(name, value)
}

// AppendRow adds a tuple with the given cells (in map iteration-safe
// order: the columns slice fixes the order) and renumbers the set.
func AppendRow(root *xdm.Node, columns []string, values []string) (*xdm.Node, error) {
	if len(columns) != len(values) {
		return nil, fmt.Errorf("rowset: %d columns but %d values", len(columns), len(values))
	}
	row := root.Element(RowElement)
	for i, c := range columns {
		row.ElementWithText(c, values[i])
	}
	Renumber(root)
	return row, nil
}

// DeleteRow removes the i-th (0-based) tuple and renumbers the set.
func DeleteRow(root *xdm.Node, i int) error {
	r := Row(root, i)
	if r == nil {
		return fmt.Errorf("rowset: no row %d", i)
	}
	root.RemoveChild(r)
	Renumber(root)
	return nil
}

// Renumber rewrites the num attributes to match document order. It walks
// the children in place and writes only a number that changed, so
// appending or deleting the last tuple allocates nothing for the others.
func Renumber(root *xdm.Node) {
	var buf [20]byte
	i := int64(0)
	for _, r := range root.Children {
		if r.Kind != xdm.ElementNode || r.Name != RowElement {
			continue
		}
		i++
		num := strconv.AppendInt(buf[:0], i, 10)
		if v, ok := r.Attr(NumAttr); !ok || v != string(num) {
			r.SetAttr(NumAttr, string(num))
		}
	}
}
