package engine_test

import (
	"fmt"

	"wfsql/internal/engine"
)

// Example builds and runs a small BPEL-style process: a while loop over a
// scalar counter with XPath conditions and assigns.
func Example() {
	p := &engine.Process{
		Name: "counter",
		Variables: []engine.VarDecl{
			{Name: "i", Kind: engine.ScalarVar, Init: "0"},
			{Name: "total", Kind: engine.ScalarVar, Init: "0"},
		},
		Body: engine.NewWhile("loop", engine.Cond("$i <= 3"),
			engine.NewAssign("step").
				Copy("$total + $i", "total").
				Copy("$i + 1", "i")),
	}
	e := engine.New(nil)
	d, _ := e.Deploy(p)
	in, _ := d.Run(nil)
	fmt.Println(in.MustVariable("total").String())
	// Output: 6
}
