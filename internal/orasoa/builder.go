package orasoa

import (
	"wfsql/internal/engine"
	"wfsql/internal/rowset"
	"wfsql/internal/xdm"
)

// ProcessBuilder plays the BPEL Designer / JDeveloper role: it assembles a
// BPEL process whose assign activities can call the Oracle XPath extension
// functions, and produces an engine.Process for the Core BPEL Engine.
type ProcessBuilder struct {
	name  string
	funcs *Functions
	vars  []engine.VarDecl
	body  engine.Activity
}

// NewProcess starts building an Oracle SOA process over the given
// extension function library (which carries the static database binding).
func NewProcess(name string, funcs *Functions) *ProcessBuilder {
	return &ProcessBuilder{name: name, funcs: funcs}
}

// Variable declares a scalar process variable.
func (b *ProcessBuilder) Variable(name, init string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.ScalarVar, Init: init})
	return b
}

// XMLVariable declares an XML process variable.
func (b *ProcessBuilder) XMLVariable(name, initXML string) *ProcessBuilder {
	b.vars = append(b.vars, engine.VarDecl{Name: name, Kind: engine.XMLVar, InitXML: initXML})
	return b
}

// Body sets the process body.
func (b *ProcessBuilder) Body(a engine.Activity) *ProcessBuilder {
	b.body = a
	return b
}

// Build produces the deployable process model with the extension functions
// installed.
func (b *ProcessBuilder) Build() *engine.Process {
	return &engine.Process{
		Name:      b.name,
		Variables: b.vars,
		Body:      b.body,
		Funcs:     b.funcs,
		Stack:     "Oracle",
	}
}

// JavaSnippet is the Oracle-specific Java embedding activity the paper's
// workarounds use (sequential access over an XML RowSet).
func JavaSnippet(name string, fn func(ctx *engine.Ctx) error) engine.Activity {
	return engine.NewSnippet(name, fn)
}

// CursorLoop builds the paper's sequential-access workaround for Oracle: a
// while activity plus a Java-Snippet that stores the next row of an XML
// RowSet variable into currentVar on each iteration.
func CursorLoop(name, rowSetVar, currentVar, posVar string, body engine.Activity) engine.Activity {
	return engine.CursorLoop("orasoa", name, rowSetVar, currentVar, posVar, body)
}

// EmptyRowSet returns a fresh empty RowSet document (for declaring XML
// RowSet variables).
func EmptyRowSet() *xdm.Node { return xdm.NewElement(rowset.RootElement) }
