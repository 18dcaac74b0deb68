package xpath_test

import (
	"fmt"

	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// Example evaluates paths and predicates over an XML RowSet, the
// materialized-set shape the IBM and Oracle product layers use.
func Example() {
	doc := xdm.MustParse(`<RowSet>
		<Row><ItemID>bolt</ItemID><Quantity>15</Quantity></Row>
		<Row><ItemID>nut</ItemID><Quantity>3</Quantity></Row>
	</RowSet>`)

	expr := xpath.MustCompile("Row[10 <= Quantity]/ItemID")
	v, _ := expr.Eval(&xpath.Context{Node: doc})
	fmt.Println(v.AsString())

	count := xpath.MustCompile("count(Row)")
	v, _ = count.Eval(&xpath.Context{Node: doc})
	fmt.Println(v.AsNumber())
	// Output:
	// bolt
	// 2
}

// ExampleVarMap shows variable references, the mechanism BPEL assign
// activities use to address process variables.
func ExampleVarMap() {
	vars := xpath.VarMap{
		"pos":  xpath.Number(7),
		"item": xpath.String("bolt"),
	}
	expr := xpath.MustCompile("$pos + 1")
	v, _ := expr.Eval(&xpath.Context{Vars: vars})
	fmt.Println(v.AsString())
	v, _ = xpath.MustCompile("$item = 'bolt'").Eval(&xpath.Context{Vars: vars})
	fmt.Println(v.AsString())
	// Output:
	// 8
	// true
}
