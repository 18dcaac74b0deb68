package bis

import (
	"fmt"

	"wfsql/internal/engine"
	"wfsql/internal/rowset"
	"wfsql/internal/xdm"
)

// This file provides the set-variable workarounds the paper attributes to
// BIS: cursor functionality built from a while activity plus a
// Java-Snippet (Sequential Set Access Pattern), and snippet-based tuple
// insertion/deletion (the parts of the Tuple IUD Pattern that assign
// activities cannot express).

// CursorLoop builds the paper's cursor workaround: a while activity whose
// body first binds the next tuple of the set variable to currentVar via a
// snippet, then runs the given body. posVar is a scalar variable holding
// the 1-based cursor position and must be declared by the process.
func CursorLoop(name, setVar, currentVar, posVar string, body engine.Activity) engine.Activity {
	return engine.CursorLoop("bis", name, setVar, currentVar, posVar, body)
}

// InsertTuple appends a tuple to a set variable (snippet workaround for
// the insert part of the Tuple IUD Pattern).
func InsertTuple(ctx *engine.Ctx, setVar string, columns, values []string) error {
	sv, err := ctx.Variable(setVar)
	if err != nil {
		return err
	}
	if sv.Node() == nil {
		sv.SetNode(xdm.NewElement(rowset.RootElement))
	}
	_, err = rowset.AppendRow(sv.Node(), columns, values)
	return err
}

// DeleteTuple removes the i-th (0-based) tuple from a set variable
// (snippet workaround for the delete part of the Tuple IUD Pattern).
func DeleteTuple(ctx *engine.Ctx, setVar string, i int) error {
	sv, err := ctx.Variable(setVar)
	if err != nil {
		return err
	}
	if sv.Node() == nil {
		return fmt.Errorf("bis: set variable %s is empty", setVar)
	}
	return rowset.DeleteRow(sv.Node(), i)
}

// TupleCount returns the number of tuples in a set variable. It reads
// the set through XPathValue, not Node, so a cursor's borrowed row is not
// copied by a count.
func TupleCount(ctx *engine.Ctx, setVar string) (int, error) {
	sv, err := ctx.Variable(setVar)
	if err != nil {
		return 0, err
	}
	n := sv.XPathValue().FirstNode()
	if n == nil {
		return 0, nil
	}
	return rowset.Count(n), nil
}
