package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"wfsql/internal/host"
	"wfsql/internal/journal"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// TransactionMode distinguishes the process kinds the paper's transaction
// discussion depends on: in *short-running* processes all SQL and
// retrieve-set activities execute in a single transaction; in
// *long-running* processes each executes in its own transaction unless
// bundled by an atomic SQL sequence.
type TransactionMode int

// Process transaction modes.
const (
	LongRunning TransactionMode = iota
	ShortRunning
)

// String returns the mode name.
func (m TransactionMode) String() string {
	if m == ShortRunning {
		return "short-running"
	}
	return "long-running"
}

// Process is a deployable process model (the output of the design step in
// all three product architectures).
type Process struct {
	Name      string
	Variables []VarDecl
	Body      Activity
	Funcs     Functions // extension functions (e.g. ora:*)
	Mode      TransactionMode

	// Stack names the product architecture the process models ("BIS",
	// "WF", "Oracle"). It is carried on every span the instance emits so
	// traces can be sliced per stack.
	Stack string

	// OnInstanceStart hooks run before the body (the BIS layer installs
	// preparation statements and transaction setup here).
	OnInstanceStart []func(ctx *Ctx) error
}

// Engine executes deployed processes. It owns the service bus and the
// registry of named data sources the product layers resolve against; the
// embedded host.Host holds its dead-letter log, journal and observability
// (metrics "engine.…").
type Engine struct {
	host.Host
	Bus *wsbus.Bus

	mu          sync.RWMutex
	dataSources map[string]*sqldb.DB
}

// New creates an engine with the given bus (nil is allowed for processes
// that never invoke services).
func New(bus *wsbus.Bus) *Engine {
	e := &Engine{Bus: bus, dataSources: map[string]*sqldb.DB{}}
	e.Init("engine")
	return e
}

// RegisterDataSource makes a database available under a JNDI-like name.
func (e *Engine) RegisterDataSource(name string, db *sqldb.DB) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dataSources[name] = db
}

// DataSource resolves a registered database.
func (e *Engine) DataSource(name string) (*sqldb.DB, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	db, ok := e.dataSources[name]
	if !ok {
		return nil, fmt.Errorf("engine: no data source %q registered", name)
	}
	return db, nil
}

// Functions resolves a process's extension functions for the instance
// whose expression calls them, so what a function runs (Oracle's SQL)
// runs as part of that instance.
type Functions interface {
	CallFunction(in *Instance, name string, args []xpath.Value) (xpath.Value, error)
}

// Deployment is a validated process installed on the engine.
type Deployment struct {
	Process *Process
	Engine  *Engine
}

// Deploy validates a process model and installs it. Validation mirrors
// what the products' deployment steps check: a body exists, variable
// declarations are unique, and activity names are non-empty.
func (e *Engine) Deploy(p *Process) (*Deployment, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("engine: process must have a name")
	}
	if p.Body == nil {
		return nil, fmt.Errorf("engine: process %s has no body", p.Name)
	}
	seen := map[string]bool{}
	for _, vd := range p.Variables {
		if vd.Name == "" {
			return nil, fmt.Errorf("engine: process %s declares an unnamed variable", p.Name)
		}
		if seen[vd.Name] {
			return nil, fmt.Errorf("engine: process %s declares variable %s twice", p.Name, vd.Name)
		}
		seen[vd.Name] = true
	}
	d := &Deployment{Process: p, Engine: e}
	unnamed := false
	walkActivities(p.Body, func(x Activity) { unnamed = unnamed || x.Name() == "" })
	if unnamed {
		return nil, fmt.Errorf("engine: process %s contains an unnamed activity", p.Name)
	}
	return d, nil
}

// NewInstance instantiates the deployment, initializing declared
// variables and binding input values to scalar variables. With a
// journal attached, the instance ID is allocated durably and an
// instance-created record (input message + transaction mode) is
// journaled so a crashed instance can be re-instantiated on recovery.
func (d *Deployment) NewInstance(input map[string]string) (*Instance, error) {
	return d.newInstance(0, input)
}

// newInstance builds an instance under the recorder attached to the
// engine now: a fresh one (id 0) journals its creation, a recovered one
// keeps id, whose creation is already journaled.
func (d *Deployment) newInstance(id int64, input map[string]string) (*Instance, error) {
	in := &Instance{
		Process: d.Process,
		Engine:  d.Engine,
		vars:    make(map[string]*Variable, len(d.Process.Variables)),
		context: map[string]any{},
		state:   StateReady,
	}
	in.funcs = instanceFuncs{inst: in, next: d.Process.Funcs}
	in.xpctx = xpath.Context{Position: 1, Vars: instanceVars{in}, Funcs: &in.funcs}
	fresh := id == 0
	d.Engine.Open(&in.Instance, id)
	for _, vd := range d.Process.Variables {
		switch vd.Kind {
		case XMLVar:
			var n *xdm.Node
			if vd.InitXML != "" {
				parsed, err := xdm.Parse(vd.InitXML)
				if err != nil {
					return nil, fmt.Errorf("engine: variable %s init: %w", vd.Name, err)
				}
				n = parsed
			}
			in.vars[vd.Name] = NewXMLVariable(vd.Name, n)
		default:
			in.vars[vd.Name] = NewScalarVariable(vd.Name, vd.Init)
		}
	}
	for k, v := range input {
		pv, ok := in.vars[k]
		if !ok {
			return nil, fmt.Errorf("engine: input %s does not match a declared variable", k)
		}
		pv.SetString(v)
	}
	if rec := in.Journal(); fresh && rec != nil {
		if err := rec.InstanceCreated(in.ID, d.Process.Name, d.Process.Mode.String(), input); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Run instantiates and executes the process to completion.
//
// Run is safe for concurrent use: the worker-pool instance scheduler
// (internal/sched) calls it from many goroutines against one
// deployment, the way a BPEL server drives many instances of one
// process model. Each call creates its own Instance with its own
// variable space and per-instance sqldb sessions; the deployment and
// its activity tree are read-only during execution. The input map is
// only read.
func (d *Deployment) Run(input map[string]string) (*Instance, error) {
	return d.RunCtx(context.Background(), input)
}

// RunCtx is Run with an execution budget: when ctx carries a deadline
// (or is cancelled), the instance is stopped at the next activity
// boundary — and, through the product layers, at the next bus call or
// SQL statement boundary — with host.ErrBudgetExceeded instead of burning a
// worker until per-attempt timeouts fire. The budget is advisory
// inside an activity (a single slow statement still completes or hits
// its own timeout); it is authoritative between activities.
func (d *Deployment) RunCtx(ctx context.Context, input map[string]string) (*Instance, error) {
	in, err := d.NewInstance(input)
	if err != nil {
		return nil, err
	}
	return in, d.Engine.executeCtx(ctx, in)
}

// executeCtx runs an instance's body under an execution budget.
func (e *Engine) executeCtx(runCtx context.Context, in *Instance) error {
	if in.state != StateReady {
		return fmt.Errorf("engine: instance %d already %s", in.ID, in.state)
	}
	in.state = StateRunning

	span := e.Begin(&in.Instance, runCtx, in.Process.Name, in.Process.Stack)
	span.Set("mode", in.Process.Mode.String())
	ctx := &Ctx{Inst: in, Engine: e, span: span}
	var err error
	for _, hook := range in.Process.OnInstanceStart {
		if err = hook(ctx); err != nil {
			break
		}
	}
	if err == nil {
		err = execChild(ctx, in.Process.Body)
	}

	// A simulated crash is process death, not a fault: no completion
	// callbacks run (their cleanup would destroy state recovery needs)
	// and nothing more is journaled. End hands the instance's sessions
	// back, which rolls back what the database would when the process's
	// connections die: its open transactions.
	if journal.IsCrash(err) {
		in.state, in.fault = StateCrashed, err
		return in.End(err)
	}
	for i := len(in.done) - 1; i >= 0; i-- {
		in.done[i](err)
	}
	if err != nil {
		in.state, in.fault = StateFaulted, err
	} else {
		in.state = StateCompleted
	}
	return in.End(err)
}

// Describe returns a structural one-line description of the process body
// (monitoring/tooling support).
func (d *Deployment) Describe() string {
	return fmt.Sprintf("%s [%s]: %s", d.Process.Name, d.Process.Mode, strings.Join(ActivityNames(d.Process.Body), " > "))
}
