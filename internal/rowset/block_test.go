package rowset

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

// fromResultEach is the node-by-node builder FromResult replaced: the
// reference the block-built RowSet is checked against.
func fromResultEach(r *sqldb.Result) *xdm.Node {
	root := xdm.NewElement(RootElement)
	for i, row := range r.Rows {
		el := root.Element(RowElement)
		el.SetAttr(NumAttr, strconv.Itoa(i+1))
		for ci, col := range r.Columns {
			cell := el.Element(col)
			if !row[ci].IsNull() {
				cell.SetText(row[ci].String())
			} else {
				cell.SetAttr("null", "true")
			}
		}
	}
	return root
}

// randomResult has zero to six rows of one to four columns, with NULL,
// integer and string cells.
func randomResult(rng *rand.Rand) *sqldb.Result {
	res := &sqldb.Result{Columns: []string{}, Rows: [][]sqldb.Value{}}
	for c := rng.Intn(4) + 1; c > 0; c-- {
		res.Columns = append(res.Columns, fmt.Sprintf("C%d", len(res.Columns)))
	}
	for r := rng.Intn(7); r > 0; r-- {
		row := make([]sqldb.Value, len(res.Columns))
		for i := range row {
			switch rng.Intn(3) {
			case 0:
				row[i] = sqldb.Null()
			case 1:
				row[i] = sqldb.Int(rng.Int63n(1000))
			default:
				row[i] = sqldb.Str("s" + strconv.Itoa(rng.Intn(100)))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func walk(n *xdm.Node) []*xdm.Node {
	out := []*xdm.Node{n}
	for _, c := range n.Children {
		out = append(out, walk(c)...)
	}
	return out
}

type ownState struct {
	name, text string
	attrs      []xdm.Attr
	kids       []*xdm.Node
	parent     *xdm.Node
}

func stateOf(n *xdm.Node) ownState {
	return ownState{n.Name, n.Text, slices.Clone(n.Attrs), slices.Clone(n.Children), n.Parent()}
}

func (s ownState) equal(o ownState) bool {
	return s.name == o.name && s.text == o.text && slices.Equal(s.attrs, o.attrs) &&
		slices.Equal(s.kids, o.kids) && s.parent == o.parent
}

// TestBlockRowSetMatchesFromResultEach: the block-built RowSet equals the
// node-by-node one, parents included, and Tuple IUD on it changes no
// node the operation did not touch.
func TestBlockRowSetMatchesFromResultEach(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 2000; i++ {
		res := randomResult(rng)
		if i == 0 {
			res.Rows = nil
		}
		block, err := FromResult(res)
		if err != nil {
			t.Fatal(err)
		}
		each := fromResultEach(res)
		if block.String() != each.String() || !block.Equal(each) {
			t.Fatalf("result %d: block %s, per-node %s", i, block, each)
		}
		bn, en := walk(block), walk(each)
		for j := range bn {
			if bn[j].Kind != en[j].Kind || len(bn[j].Children) != len(en[j].Children) ||
				(bn[j].Parent() == nil) != (en[j].Parent() == nil) ||
				(j > 0 && slices.Index(bn, bn[j].Parent()) != slices.Index(en, en[j].Parent())) {
				t.Fatalf("result %d: node %d (%s) differs", i, j, bn[j].Name)
			}
		}

		states := make(map[*xdm.Node]ownState, len(bn))
		for _, n := range bn {
			states[n] = stateOf(n)
		}
		touched := map[*xdm.Node]bool{}
		for m := 0; m < 20; m++ {
			rows := Rows(block)
			if len(rows) == 0 || rng.Intn(5) == 0 {
				touched[block] = true
				if _, err := AppendRow(block, res.Columns, make([]string, len(res.Columns))); err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					touched[r] = true // renumbered
				}
				continue
			}
			row := rows[rng.Intn(len(rows))]
			switch rng.Intn(3) {
			case 0: // update a cell
				cell := row.FirstChildElement(res.Columns[rng.Intn(len(res.Columns))])
				touched[cell] = true
				for _, c := range cell.Children {
					touched[c] = true
				}
				SetField(row, cell.Name, "updated")
			case 1: // grow a tuple by a cell and an attribute
				touched[row] = true
				SetField(row, "Extra", "x")
				row.SetAttr("mark", "1")
			case 2: // delete a tuple
				touched[block] = true
				for _, r := range rows {
					touched[r] = true // detached or renumbered
				}
				if err := DeleteRow(block, slices.Index(rows, row)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range bn {
			if !touched[n] && !states[n].equal(stateOf(n)) {
				t.Fatalf("result %d: untouched node %s changed", i, n.Name)
			}
		}
	}
}
