package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"wfsql/internal/host"
	"wfsql/internal/obsv"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// InstanceState is the lifecycle state of a process instance.
type InstanceState int

// Instance lifecycle states. StateCrashed marks a simulated process
// death (chaos crash point): unlike a fault, no handlers or cleanup
// ran, and the instance is recoverable from the journal.
const (
	StateReady InstanceState = iota
	StateRunning
	StateCompleted
	StateFaulted
	StateCrashed
)

// String returns the state name.
func (s InstanceState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFaulted:
		return "faulted"
	case StateCrashed:
		return "crashed"
	}
	return "unknown"
}

// Instance is one execution of a deployed process. The embedded
// host.Instance holds its ID, journal and observability record.
type Instance struct {
	host.Instance
	Process *Process
	Engine  *Engine

	// vars is fixed by newInstance and only read after, so lookups take
	// no lock; each Variable keeps its own.
	vars map[string]*Variable

	mu      sync.Mutex
	state   InstanceState
	fault   error
	context map[string]any // product-layer state (set references, ...)
	done    []func(err error)

	// xpctx is the instance's shared XPath evaluation context, built by
	// newInstance: its resolver/function hooks only reference the
	// instance, and evaluation never mutates the context, so it serves
	// every expression the instance ever evaluates.
	xpctx xpath.Context
	funcs instanceFuncs
}

// State returns the instance state.
func (in *Instance) State() InstanceState {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.state
}

// Fault returns the fault that terminated the instance, if any.
func (in *Instance) Fault() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fault
}

// Variable returns the named process variable.
func (in *Instance) Variable(name string) (*Variable, error) {
	v, ok := in.vars[name]
	if !ok {
		return nil, fmt.Errorf("engine: undeclared variable %s", name)
	}
	return v, nil
}

// MustVariable returns the named variable or panics (test helper).
func (in *Instance) MustVariable(name string) *Variable {
	v, err := in.Variable(name)
	if err != nil {
		panic(err)
	}
	return v
}

// SetContext stores product-layer state under a key.
func (in *Instance) SetContext(key string, value any) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.context[key] = value
}

// Context retrieves product-layer state.
func (in *Instance) Context(key string) (any, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v, ok := in.context[key]
	return v, ok
}

// OnComplete registers a callback invoked when the instance finishes
// (err is the fault, or nil). Product layers use this for end-of-process
// transaction handling and cleanup statements.
func (in *Instance) OnComplete(fn func(err error)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.done = append(in.done, fn)
}

// Ctx is the execution context passed to activities.
type Ctx struct {
	Inst   *Instance
	Engine *Engine

	// span is the observability span enclosing the current activity
	// (the instance span at the top level). It is nil when no
	// observability bundle is attached; all *obsv.Span methods are
	// nil-safe, so activity code uses it unconditionally.
	span *obsv.Span
}

// Span returns the span enclosing the current activity (nil-safe to
// use; nil when observability is detached). Product layers use it to
// parent their own spans under the running activity and to note on it
// what happened inside (retry=suppressed, attempt, backoff).
func (c *Ctx) Span() *obsv.Span { return c.span }

// Context returns the instance's execution budget (deadline or
// cancellation), threaded from Deployment.RunCtx: activity boundaries
// check it, and so do the bus and sqldb sessions at call and statement
// boundaries. Never nil: instances started without a budget report
// context.Background().
func (c *Ctx) Context() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.Inst.Budget()
}

// Variable resolves a process variable.
func (c *Ctx) Variable(name string) (*Variable, error) { return c.Inst.Variable(name) }

// SetScalar sets a scalar variable (declaring it if necessary is an error;
// BPEL requires declaration). Variable writes are not journaled: replay
// recomputes variables deterministically from the memoized effects.
func (c *Ctx) SetScalar(name, value string) error {
	v, err := c.Inst.Variable(name)
	if err != nil {
		return err
	}
	v.SetString(value)
	return nil
}

// SetNode sets an XML variable's document.
func (c *Ctx) SetNode(name string, n *xdm.Node) error {
	v, err := c.Inst.Variable(name)
	if err != nil {
		return err
	}
	v.SetNode(n)
	return nil
}

// XPathContext returns the XPath evaluation context over the instance's
// variables, with the BPEL built-in functions (bpel:getVariableData) and
// the process's extension functions installed.
func (c *Ctx) XPathContext() *xpath.Context { return &c.Inst.xpctx }

// instanceFuncs provides BPEL built-in extension functions that need
// instance access, chaining to the process's own extension functions
// with the instance.
type instanceFuncs struct {
	inst *Instance
	next Functions
}

// CallFunction implements xpath.FunctionResolver. bpel:getVariableData
// (also reachable as ora:getVariableData, which Oracle exposes both as an
// extension function and a Java method) extracts an entire variable or a
// path within it.
func (f *instanceFuncs) CallFunction(name string, args []xpath.Value) (xpath.Value, error) {
	local := name
	if i := strings.LastIndex(name, ":"); i >= 0 {
		local = name[i+1:]
	}
	if local == "getVariableData" {
		if len(args) < 1 || len(args) > 2 {
			return xpath.Value{}, fmt.Errorf("engine: getVariableData expects 1 or 2 arguments")
		}
		v, err := f.inst.Variable(args[0].AsString())
		if err != nil {
			return xpath.Value{}, err
		}
		val := v.XPathValue()
		if len(args) == 1 {
			return val, nil
		}
		doc := v.doc()
		if doc == nil {
			return xpath.Value{}, fmt.Errorf("engine: getVariableData path on non-XML variable %s", v.Name)
		}
		sub, err := xpath.Compile(args[1].AsString())
		if err != nil {
			return xpath.Value{}, err
		}
		sctx := f.inst.xpctx
		sctx.Node = doc
		return sub.Eval(&sctx)
	}
	if f.next == nil {
		return xpath.Value{}, fmt.Errorf("engine: unknown extension function %s()", name)
	}
	return f.next.CallFunction(f.inst, name, args)
}

// EvalXPath evaluates a compiled XPath expression against the instance.
func (c *Ctx) EvalXPath(e *xpath.Expr) (xpath.Value, error) {
	return e.Eval(c.XPathContext())
}

// instanceVars adapts instance variables to xpath.VariableResolver.
type instanceVars struct{ in *Instance }

// ResolveVariable implements xpath.VariableResolver.
func (r instanceVars) ResolveVariable(name string) (xpath.Value, error) {
	v, err := r.in.Variable(name)
	if err != nil {
		return xpath.Value{}, err
	}
	return v.XPathValue(), nil
}
