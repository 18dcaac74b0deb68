package rowset

import (
	"testing"
	"testing/quick"

	"wfsql/internal/sqldb"
	"wfsql/internal/xdm"
)

func sampleResult() *sqldb.Result {
	return &sqldb.Result{
		Columns: []string{"ItemID", "Quantity"},
		Rows: [][]sqldb.Value{
			{sqldb.Str("bolt"), sqldb.Int(15)},
			{sqldb.Str("nut"), sqldb.Int(3)},
			{sqldb.Str("screw"), sqldb.Null()},
		},
	}
}

func TestFromResultShape(t *testing.T) {
	rs, err := FromResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Name != RootElement {
		t.Fatalf("root: %s", rs.Name)
	}
	rows := Rows(rs)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Each output tuple becomes a numbered XML element with a text node
	// per attribute value (the paper's RowSet description).
	if n, _ := rows[0].Attr(NumAttr); n != "1" {
		t.Fatalf("numbering: %s", n)
	}
	if Field(rows[0], "ItemID") != "bolt" || Field(rows[0], "Quantity") != "15" {
		t.Fatalf("fields: %s", rows[0])
	}
	// NULL cells carry a null marker.
	qty := rows[2].FirstChildElement("Quantity")
	if v, ok := qty.Attr("null"); !ok || v != "true" {
		t.Fatalf("null marker: %s", qty)
	}
}

func TestFromResultErrors(t *testing.T) {
	if _, err := FromResult(nil); err == nil {
		t.Fatal("nil result must error")
	}
	if _, err := FromResult(&sqldb.Result{RowsAffected: 3}); err == nil {
		t.Fatal("DML result must error")
	}
}

func TestToValuesRoundTrip(t *testing.T) {
	rs, _ := FromResult(sampleResult())
	cols, rows, err := ToValues(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "ItemID" {
		t.Fatalf("columns: %v", cols)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0][0].S != "bolt" || rows[0][1].S != "15" {
		t.Fatalf("first row: %v", rows[0])
	}
	if !rows[2][1].IsNull() {
		t.Fatalf("null survives: %v", rows[2][1])
	}
}

func TestToValuesErrors(t *testing.T) {
	if _, _, err := ToValues(xdm.NewElement("NotARowSet")); err == nil {
		t.Fatal("wrong root must error")
	}
	bad := xdm.NewElement(RootElement)
	bad.Element("Oops")
	if _, _, err := ToValues(bad); err == nil {
		t.Fatal("wrong row element must error")
	}
}

func TestRowAccess(t *testing.T) {
	rs, _ := FromResult(sampleResult())
	if Row(rs, 1) == nil || Field(Row(rs, 1), "ItemID") != "nut" {
		t.Fatal("Row(1)")
	}
	if Row(rs, -1) != nil || Row(rs, 3) != nil {
		t.Fatal("out-of-range rows must be nil")
	}
	if Count(rs) != 3 {
		t.Fatalf("count: %d", Count(rs))
	}
}

func TestAppendDeleteRenumber(t *testing.T) {
	rs, _ := FromResult(sampleResult())
	if _, err := AppendRow(rs, []string{"ItemID", "Quantity"}, []string{"washer", "7"}); err != nil {
		t.Fatal(err)
	}
	if Count(rs) != 4 {
		t.Fatalf("count after append: %d", Count(rs))
	}
	if n, _ := Row(rs, 3).Attr(NumAttr); n != "4" {
		t.Fatalf("appended row number: %s", n)
	}
	if err := DeleteRow(rs, 0); err != nil {
		t.Fatal(err)
	}
	if Count(rs) != 3 {
		t.Fatalf("count after delete: %d", Count(rs))
	}
	// Renumbering keeps numbers dense and ordered.
	for i, r := range Rows(rs) {
		if n, _ := r.Attr(NumAttr); n != string(rune('1'+i)) {
			t.Fatalf("row %d numbered %s", i, n)
		}
	}
	if err := DeleteRow(rs, 99); err == nil {
		t.Fatal("deleting missing row must error")
	}
	if _, err := AppendRow(rs, []string{"a"}, []string{"1", "2"}); err == nil {
		t.Fatal("mismatched append must error")
	}
}

func TestSetField(t *testing.T) {
	rs, _ := FromResult(sampleResult())
	r := Row(rs, 0)
	SetField(r, "Quantity", "99")
	if Field(r, "Quantity") != "99" {
		t.Fatal("update existing field")
	}
	SetField(r, "New", "x")
	if Field(r, "New") != "x" {
		t.Fatal("add new field")
	}
}

// Property: FromResult → ToValues preserves row count, column names, and
// string forms of all non-NULL values.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []int64, strs []string) bool {
		res := &sqldb.Result{Columns: []string{"A", "B"}}
		n := len(vals)
		if len(strs) < n {
			n = len(strs)
		}
		for i := 0; i < n; i++ {
			s := strs[i]
			// XML cannot carry control characters; sanitize as the
			// engine's string type would be used in practice.
			clean := []rune{}
			for _, r := range s {
				if r >= ' ' && r != 0xFFFD {
					clean = append(clean, r)
				}
			}
			res.Rows = append(res.Rows, []sqldb.Value{sqldb.Int(vals[i]), sqldb.Str(string(clean))})
		}
		rs, err := FromResult(res)
		if err != nil {
			return false
		}
		_, rows, err := ToValues(rs)
		if err != nil {
			return len(res.Rows) == 0
		}
		if len(rows) != len(res.Rows) {
			return false
		}
		for i, row := range rows {
			if row[0].S != res.Rows[i][0].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
