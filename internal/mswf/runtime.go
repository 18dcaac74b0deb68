// Package mswf reimplements the Microsoft Windows Workflow Foundation
// stack the paper surveys. Unlike the IBM and Oracle products, WF is not
// BPEL-based: workflows are authored in a .NET language (code-only), in
// XOML markup (markup-only), or both (code-separation), and executed by a
// runtime engine hosted in an ordinary process, backed by pluggable
// runtime services (persistence; the tracking service's role is played
// by the observability span tree).
//
// This package therefore has its own small activity model and runtime —
// deliberately separate from internal/engine — plus the Base Activity
// Library (no SQL support, per the paper), a Custom Activity Library with
// the SQLDatabaseActivity, a XOML loader, and host variables in which
// query results are materialized as dataset.DataSet objects.
package mswf

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wfsql/internal/host"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// Provider identifies a database provider in a connection string. The SQL
// database activity implementation the paper presents is restricted to SQL
// Server and Oracle database systems; other providers are rejected.
type Provider string

// Supported (and one unsupported, for tests) providers.
const (
	SQLServer Provider = "SqlServer"
	OracleDB  Provider = "Oracle"
)

// Runtime is the workflow runtime engine together with its host-level
// configuration (registered databases, code handlers, rule conditions).
// The embedded host.Host holds its dead-letter log (web-service
// invocations whose retries were exhausted; WF would use a tracking or
// persistence service for this role), journal and observability (metrics
// "wf.…"; each run emits an instance span with stack "WF" and one
// activity span per activity, WF's tracking service role).
type Runtime struct {
	host.Host

	mu        sync.RWMutex
	databases map[string]registeredDB
	connCache map[string]*sqldb.DB // memoized openConnection results, keyed by raw connection string
	handlers  map[string]func(*Context) error
	rules     map[string]func(*Context) (bool, error)
	services  map[string]wsbus.Operation
}

type registeredDB struct {
	provider Provider
	db       *sqldb.DB
}

// NewRuntime creates a workflow runtime.
func NewRuntime() *Runtime {
	rt := &Runtime{
		databases: map[string]registeredDB{},
		connCache: map[string]*sqldb.DB{},
		handlers:  map[string]func(*Context) error{},
		rules:     map[string]func(*Context) (bool, error){},
		services:  map[string]wsbus.Operation{},
	}
	rt.Init("wf")
	return rt
}

// RegisterService installs a named external service for
// InvokeWebServiceActivity resolution from markup.
func (rt *Runtime) RegisterService(name string, op wsbus.Operation) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.services[name] = op
}

func (rt *Runtime) service(name string) (wsbus.Operation, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	op, ok := rt.services[name]
	if !ok {
		return op, fmt.Errorf("mswf: no service %q registered", name)
	}
	return op, nil
}

// RegisterDatabase makes a database reachable from connection strings as
// "Provider=<p>;Data Source=<name>".
func (rt *Runtime) RegisterDatabase(name string, provider Provider, db *sqldb.DB) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.databases[strings.ToLower(name)] = registeredDB{provider: provider, db: db}
	// A re-registration can change what existing connection strings
	// resolve to; drop the memoized resolutions.
	for k := range rt.connCache {
		delete(rt.connCache, k)
	}
}

// RegisterHandler installs a named code handler (the code-separation
// authoring mode: markup references handlers implemented in code).
func (rt *Runtime) RegisterHandler(name string, fn func(*Context) error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.handlers[name] = fn
}

// RegisterRule installs a named rule condition for markup while
// activities.
func (rt *Runtime) RegisterRule(name string, fn func(*Context) (bool, error)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.rules[name] = fn
}

func (rt *Runtime) handler(name string) (func(*Context) error, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	h, ok := rt.handlers[name]
	if !ok {
		return nil, fmt.Errorf("mswf: no code handler %q registered", name)
	}
	return h, nil
}

func (rt *Runtime) rule(name string) (func(*Context) (bool, error), error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	r, ok := rt.rules[name]
	if !ok {
		return nil, fmt.Errorf("mswf: no rule condition %q registered", name)
	}
	return r, nil
}

// openConnection parses an ADO-style connection string and returns the
// database, enforcing the provider restriction. Successful resolutions
// are memoized per raw string: every SQL activity execution resolves its
// connection string, and re-parsing the same few strings per statement
// is pure overhead.
func (rt *Runtime) openConnection(connStr string) (*sqldb.DB, error) {
	rt.mu.RLock()
	cached, ok := rt.connCache[connStr]
	rt.mu.RUnlock()
	if ok {
		return cached, nil
	}
	provider, source := "", ""
	for _, part := range strings.Split(connStr, ";") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			continue
		}
		switch strings.ToLower(strings.TrimSpace(kv[0])) {
		case "provider":
			provider = strings.TrimSpace(kv[1])
		case "data source", "server":
			source = strings.TrimSpace(kv[1])
		}
	}
	if source == "" {
		return nil, fmt.Errorf("mswf: connection string %q has no Data Source", connStr)
	}
	rt.mu.RLock()
	reg, ok := rt.databases[strings.ToLower(source)]
	rt.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mswf: unknown data source %q", source)
	}
	if provider != "" && !strings.EqualFold(provider, string(reg.provider)) {
		return nil, fmt.Errorf("mswf: connection string provider %q does not match registered provider %q", provider, reg.provider)
	}
	if reg.provider != SQLServer && reg.provider != OracleDB {
		return nil, fmt.Errorf("mswf: SQL database activity supports only SqlServer and Oracle providers, not %q", reg.provider)
	}
	rt.mu.Lock()
	rt.connCache[connStr] = reg.db
	rt.mu.Unlock()
	return reg.db, nil
}

// Context is the execution context of a workflow instance: host variables
// plus runtime access. WF host variables are fields of the workflow class;
// here they are typed slots, found by name: a string or an int64 is held
// unboxed (SetString, SetInt, and Set given one), any other value as an
// any. The embedded host.Instance holds the instance's ID, journal,
// budget, spans and database sessions. Like the instance, a Context
// belongs to the one goroutine that runs it (DESIGN.md, "One goroutine
// and one session per instance").
type Context struct {
	host.Instance
	Runtime *Runtime

	vars   []slot
	params []sqldb.Value // the SQL activities' parameter vector, reused
}

// slot is one host variable: its value is s, i or v, as kind says.
type slot struct {
	name string
	kind slotKind
	s    string
	i    int64
	v    any
}

type slotKind uint8

const (
	slotAny slotKind = iota
	slotString
	slotInt
)

// slot returns the named host variable's slot (nil if absent).
func (c *Context) slot(name string) *slot {
	for i := range c.vars {
		if c.vars[i].name == name {
			return &c.vars[i]
		}
	}
	return nil
}

// set assigns a host variable its slot.
func (c *Context) set(v slot) {
	if p := c.slot(v.name); p != nil {
		*p = v
	} else {
		c.vars = append(c.vars, v)
	}
}

// Get returns a host variable with the dynamic type Set was given.
func (c *Context) Get(name string) (any, bool) {
	switch v := c.slot(name); {
	case v == nil:
		return nil, false
	case v.kind == slotString:
		return v.s, true
	case v.kind == slotInt:
		return v.i, true
	default:
		return v.v, true
	}
}

// Set assigns a host variable.
func (c *Context) Set(name string, v any) {
	switch t := v.(type) {
	case string:
		c.SetString(name, t)
	case int64:
		c.SetInt(name, t)
	default:
		c.set(slot{name: name, v: v})
	}
}

// SetString assigns a string host variable.
func (c *Context) SetString(name, v string) { c.set(slot{name: name, kind: slotString, s: v}) }

// SetInt assigns an int64 host variable.
func (c *Context) SetInt(name string, v int64) { c.set(slot{name: name, kind: slotInt, i: v}) }

// GetString returns a host variable as a string ("" if absent), as
// fmt.Sprint formats it; the common kinds are formatted directly.
func (c *Context) GetString(name string) string {
	v := c.slot(name)
	if v == nil {
		return ""
	}
	switch v.kind {
	case slotString:
		return v.s
	case slotInt:
		return strconv.FormatInt(v.i, 10)
	}
	switch t := v.v.(type) {
	case nil:
		return ""
	case int:
		return strconv.Itoa(t)
	case sqldb.Value:
		return t.String()
	}
	return fmt.Sprint(v.v)
}

// GetInt returns a host variable as an int64.
func (c *Context) GetInt(name string) (int64, error) {
	if v := c.slot(name); v != nil && v.kind == slotInt {
		return v.i, nil
	}
	v, ok := c.Get(name)
	if !ok {
		return 0, fmt.Errorf("mswf: no host variable %s", name)
	}
	switch t := v.(type) {
	case int:
		return int64(t), nil
	case sqldb.Value:
		if i, ok := t.AsInt(); ok {
			return i, nil
		}
	case string:
		var i int64
		_, err := fmt.Sscanf(t, "%d", &i)
		if err == nil {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mswf: host variable %s is not an integer (%T)", name, v)
}

// VarNames lists host variable names, sorted (for persistence snapshots).
func (c *Context) VarNames() []string {
	names := make([]string, len(c.vars))
	for i := range c.vars {
		names[i] = c.vars[i].name
	}
	sort.Strings(names)
	return names
}

// Activity is one node of a WF workflow.
type Activity interface {
	Name() string
	Execute(c *Context) error
}

// Run executes a workflow with initial host variables and returns the
// final context. With a journal attached (AttachJournal) the run is
// durable: the initial host-variable snapshot is journaled at creation
// so a crashed instance can be rebuilt by Resume, and completion is
// journaled unless the instance died at a crash point.
func (rt *Runtime) Run(root Activity, initial map[string]any) (*Context, error) {
	return rt.RunCtx(context.Background(), root, initial)
}

// RunCtx executes a workflow under an execution budget: once ctx expires,
// the next activity boundary refuses to start (the run faults with
// host.ErrBudgetExceeded) and every SQL session of the instance refuses
// further statements. Cancellation is cooperative — a running statement or
// handler finishes; the budget is enforced at boundaries.
func (rt *Runtime) RunCtx(ctx context.Context, root Activity, initial map[string]any) (*Context, error) {
	// Room for the four host variables Figure 6 sets beyond its input.
	c := &Context{Runtime: rt, vars: make([]slot, 0, len(initial)+4)}
	for k, v := range initial {
		c.Set(k, v)
	}
	rt.Open(&c.Instance, 0)
	if rec := c.Journal(); rec != nil {
		if err := rec.InstanceCreated(c.ID, root.Name(), "wf",
			map[string]string{"state": SaveState(c)}); err != nil {
			return c, err
		}
	}
	return c, rt.run(ctx, c, root, -1)
}

// run executes the workflow root between the instance's Begin and End,
// shared by RunCtx and Resume; a resumed run (memos >= 0) notes on the
// instance span how many memoized effects it was handed.
func (rt *Runtime) run(ctx context.Context, c *Context, root Activity, memos int) error {
	if span := rt.Begin(&c.Instance, ctx, root.Name(), "WF"); memos >= 0 {
		span.Set("memos", strconv.Itoa(memos))
	}
	return c.End(runActivity(c, root))
}

// runActivity runs an activity inside the instance's activity boundary
// (host.Instance.Enter/Exit), under the innermost open activity.
func runActivity(c *Context, a Activity) error {
	act, err := c.Enter(c.Current(), a.Name())
	if err != nil {
		return err
	}
	return c.Exit(act, a.Execute(c))
}
