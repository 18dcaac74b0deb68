package engine

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// Activity is one node of a process model. Activities abstract from their
// concrete implementation (the paper's two-level programming model): the
// engine executes them without knowing whether they are control flow,
// service invocations, or — in the product layers — SQL operations.
type Activity interface {
	Name() string
	Execute(ctx *Ctx) error
}

// execChild runs an activity inside the instance's activity boundary
// (host.Instance.Enter/Exit): an expired budget refuses it, and when
// observability is attached it runs as an activity span parented under
// the enclosing span, the instance's one history.
func execChild(ctx *Ctx, a Activity) error {
	act, err := ctx.Inst.Enter(ctx.span, a.Name())
	if err != nil {
		return err
	}
	if act.Span != nil {
		c2 := *ctx
		c2.span = act.Span
		ctx = &c2
	}
	return ctx.Inst.Exit(act, a.Execute(ctx))
}

// --- Sequence ---

// Sequence executes its children in order.
type Sequence struct {
	ActivityName string
	Children     []Activity
}

// NewSequence builds a sequence activity.
func NewSequence(name string, children ...Activity) *Sequence {
	return &Sequence{ActivityName: name, Children: children}
}

// Name implements Activity.
func (s *Sequence) Name() string { return s.ActivityName }

// Execute implements Activity.
func (s *Sequence) Execute(ctx *Ctx) error {
	for _, c := range s.Children {
		if err := execChild(ctx, c); err != nil {
			return err
		}
	}
	return nil
}

// --- Condition ---

// Condition gates a while loop: an XPath expression read as a boolean.
type Condition struct{ Expr *xpath.Expr }

// Cond compiles an XPath condition, panicking on syntax errors (process
// models are built at program start).
func Cond(src string) *Condition { return &Condition{Expr: xpath.MustCompile(src)} }

// Test evaluates the condition over the instance's variables.
func (c *Condition) Test(ctx *Ctx) (bool, error) {
	v, err := ctx.EvalXPath(c.Expr)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

// --- While ---

// While repeats its body while the condition holds.
type While struct {
	ActivityName string
	Condition    *Condition
	Body         Activity
}

// NewWhile builds a while activity.
func NewWhile(name string, cond *Condition, body Activity) *While {
	return &While{ActivityName: name, Condition: cond, Body: body}
}

// Name implements Activity.
func (w *While) Name() string { return w.ActivityName }

// Execute implements Activity.
func (w *While) Execute(ctx *Ctx) error {
	for {
		ok, err := w.Condition.Test(ctx)
		if err != nil {
			return fmt.Errorf("%s: condition: %w", w.ActivityName, err)
		}
		if !ok {
			return nil
		}
		if err := execChild(ctx, w.Body); err != nil {
			return err
		}
	}
}

// --- Empty ---

// Empty does nothing (BPEL empty activity): the benchmark's probes time
// the engine's per-instance cost around one.
type Empty struct{ ActivityName string }

// Name implements Activity.
func (e *Empty) Name() string { return e.ActivityName }

// Execute implements Activity.
func (e *Empty) Execute(ctx *Ctx) error { return nil }

// --- Assign ---

// CopySpec is one from/to copy of an assign activity. From is an XPath
// expression over the process variables; To names a target variable and an
// optional XPath location within it.
type CopySpec struct {
	From   *xpath.Expr
	ToVar  string
	ToPath *xpath.Expr // nil: replace whole variable
}

// Assign copies data between variables. The BPEL specification
// predetermines XPath as the expression language over source and target.
type Assign struct {
	ActivityName string
	Copies       []CopySpec
}

// NewAssign builds an assign activity.
func NewAssign(name string) *Assign { return &Assign{ActivityName: name} }

// Copy adds a from-expression → to-variable copy (whole variable).
func (a *Assign) Copy(fromExpr, toVar string) *Assign {
	a.Copies = append(a.Copies, CopySpec{From: xpath.MustCompile(fromExpr), ToVar: toVar})
	return a
}

// CopyTo adds a from-expression → to-variable-path copy.
func (a *Assign) CopyTo(fromExpr, toVar, toPath string) *Assign {
	a.Copies = append(a.Copies, CopySpec{
		From:   xpath.MustCompile(fromExpr),
		ToVar:  toVar,
		ToPath: xpath.MustCompile(toPath),
	})
	return a
}

// Name implements Activity.
func (a *Assign) Name() string { return a.ActivityName }

// Execute implements Activity.
func (a *Assign) Execute(ctx *Ctx) error {
	for i, cp := range a.Copies {
		if err := a.execCopy(ctx, cp); err != nil {
			return fmt.Errorf("%s: copy %d: %w", a.ActivityName, i+1, err)
		}
	}
	return nil
}

func (a *Assign) execCopy(ctx *Ctx, cp CopySpec) error {
	fromVal, err := ctx.EvalXPath(cp.From)
	if err != nil {
		return err
	}
	target, err := ctx.Variable(cp.ToVar)
	if err != nil {
		return err
	}
	if cp.ToPath == nil {
		// Replace the whole variable. A scalar target takes the string
		// value (WS-BPEL's copy to a simple-typed variable); a fresh
		// detached tree is kept as is; any other node is copied, since
		// another holder could observe a later write to it.
		n := fromVal.FirstNode()
		switch {
		case n == nil || target.Kind() == ScalarVar:
			target.SetString(fromVal.AsString())
		case fromVal.Fresh && n.Parent() == nil:
			target.SetNode(n)
		default:
			target.SetNode(n.Clone())
		}
		return nil
	}
	if target.Kind() != XMLVar || target.Node() == nil {
		return fmt.Errorf("assign: target %s is not an XML variable", cp.ToVar)
	}
	// Evaluate the to-path relative to the target variable's document.
	// Copy the shared instance context before rebasing it on the target
	// document — the cached one must stay Node-less.
	tctx := *ctx.XPathContext()
	tctx.Node = target.Node()
	tv, err := cp.ToPath.Eval(&tctx)
	if err != nil {
		return err
	}
	tn := tv.FirstNode()
	if tn == nil {
		return fmt.Errorf("assign: to-path %q selected no node in %s", cp.ToPath.Source(), cp.ToVar)
	}
	ReplaceContent(tn, fromVal)
	return nil
}

// ReplaceContent implements BPEL copy semantics, for assign and bpelx
// copy alike: the target node's content is replaced by the source value
// (a copy of an element source's attributes and children, the string
// value of anything else), and its old children are detached.
func ReplaceContent(target *xdm.Node, from xpath.Value) {
	if n := from.FirstNode(); n != nil && n.Kind == xdm.ElementNode {
		target.ReplaceContent(n.Clone())
		return
	}
	target.SetText(from.AsString())
}

// --- Invoke ---

// FaultRetryExhausted is the BPEL-style fault name raised when an
// invoke's retry policy gives up; the dead-letter log records it.
const FaultRetryExhausted = "retryExhausted"

// Invoke calls a service on the engine's bus. Input parts are XPath
// expressions over the process variables; output parts map response parts
// to variables.
//
// An optional retry policy, circuit breaker, and dead-letter wiring turn
// the invoke into the resilient middleware call the surveyed products
// sell: attempts, backoff waits, and breaker transitions are noted on the
// invoke's activity span ("attempt", "backoff", "breaker"); exhausted
// retries raise a retryExhausted fault — or, with AbsorbExhausted,
// degrade into the engine's dead-letter log and let the process continue.
type Invoke struct {
	ActivityName string
	Service      string
	Inputs       map[string]*xpath.Expr // part name -> expression
	Outputs      map[string]string      // part name -> variable name

	// Retry, when set, re-attempts transient failures under the policy.
	Retry *resilience.Policy
	// Breaker, when set, gates every attempt; it is typically shared by
	// all invokes targeting the same service across instances.
	Breaker *resilience.Breaker
	// DeadLetterKey evaluates the business key stored in dead-letter
	// records (nil: the activity name is used).
	DeadLetterKey *xpath.Expr
	// AbsorbExhausted makes an exhausted invoke degrade instead of
	// faulting: a dead letter is recorded, every output variable is set to
	// "DEADLETTERED:<key>", and the process continues.
	AbsorbExhausted bool

	keys  []varKey                    // the output variables' memo keys, kept by Out
	parts atomic.Pointer[invokeParts] // resolved against the service's operation on first run
}

// invokeParts is an invoke laid out by its service's operation: the
// expression of each request part and the variable of each reply part
// (nil and "": the invoke leaves the part empty, or does not read it).
type invokeParts struct {
	names []string
	in    []*xpath.Expr
	out   []string
}

// NewInvoke builds an invoke activity.
func NewInvoke(name, service string) *Invoke {
	return &Invoke{ActivityName: name, Service: service,
		Inputs: map[string]*xpath.Expr{}, Outputs: map[string]string{}}
}

// In maps an input part to an XPath expression.
func (iv *Invoke) In(part, expr string) *Invoke {
	iv.Inputs[part] = xpath.MustCompile(expr)
	return iv
}

// Out maps a response part to a variable.
func (iv *Invoke) Out(part, variable string) *Invoke {
	iv.Outputs[part] = variable
	vars := make([]string, 0, len(iv.Outputs))
	for _, v := range iv.Outputs {
		vars = append(vars, v)
	}
	iv.keys = varKeys(vars)
	return iv
}

// WithRetry attaches a retry policy.
func (iv *Invoke) WithRetry(p *resilience.Policy) *Invoke {
	iv.Retry = p
	return iv
}

// WithBreaker attaches a (typically shared) circuit breaker.
func (iv *Invoke) WithBreaker(b *resilience.Breaker) *Invoke {
	iv.Breaker = b
	return iv
}

// WithDeadLetter configures the dead-letter business key expression and
// whether exhaustion is absorbed (degrade) or raised (fault).
func (iv *Invoke) WithDeadLetter(keyExpr string, absorb bool) *Invoke {
	iv.DeadLetterKey = xpath.MustCompile(keyExpr)
	iv.AbsorbExhausted = absorb
	return iv
}

// Name implements Activity.
func (iv *Invoke) Name() string { return iv.ActivityName }

// Execute implements Activity. The whole call — input evaluation, bus
// invocation under the retry policy, dead-letter handling, and output
// binding — runs as one journaled effect that publishes the output
// variables (including degraded DEADLETTERED markers), so a recovered
// instance replays the response without re-invoking the service.
func (iv *Invoke) Execute(ctx *Ctx) error {
	v := variables{ctx: ctx, keys: iv.keys}
	return ctx.Inst.Effect(ctx.span, iv.ActivityName, journal.EffectInvoke,
		func() error { return iv.executeLive(ctx) }, journal.Outcome{Save: v.save, Restore: v.restore})
}

// executeLive performs the actual service invocation (no journaling).
func (iv *Invoke) executeLive(ctx *Ctx) error {
	if ctx.Engine.Bus == nil {
		return fmt.Errorf("%s: engine has no service bus", iv.ActivityName)
	}
	parts, err := iv.resolve(ctx.Engine.Bus)
	if err != nil {
		return fmt.Errorf("%s: %w", iv.ActivityName, err)
	}
	var req []string // an unregistered service gets none, and the bus refuses the call
	if parts != nil {
		req = make([]string, len(parts.in))
		for i, e := range parts.in {
			if e == nil {
				continue
			}
			v, err := ctx.EvalXPath(e)
			if err != nil {
				return fmt.Errorf("%s: input %s: %w", iv.ActivityName, parts.names[i], err)
			}
			req[i] = v.AsString()
		}
	}

	resp, err := iv.call(ctx, req)
	if err != nil {
		if ab := resilience.Abandoned(err); ab != nil {
			return iv.deadLetter(ctx, ab)
		}
		return fmt.Errorf("%s: %w", iv.ActivityName, err)
	}
	if parts == nil || len(resp) != len(parts.out) {
		return fmt.Errorf("%s: service %s changed its parts during the call", iv.ActivityName, iv.Service)
	}
	for i, v := range parts.out {
		if v == "" {
			continue
		}
		if err := ctx.SetScalar(v, resp[i]); err != nil {
			return err
		}
	}
	return nil
}

// resolve returns the invoke laid out by its service's operation, on the
// first run that finds the service registered (nil before).
func (iv *Invoke) resolve(bus *wsbus.Bus) (*invokeParts, error) {
	if p := iv.parts.Load(); p != nil {
		return p, nil
	}
	op, ok := bus.Operation(iv.Service)
	if !ok {
		return nil, nil
	}
	in, err := wsbus.Layout(op.In, iv.Inputs)
	if err != nil {
		return nil, fmt.Errorf("service %s: %w", iv.Service, err)
	}
	out, err := wsbus.Layout(op.Out, iv.Outputs)
	if err != nil {
		return nil, fmt.Errorf("service %s: %w", iv.Service, err)
	}
	p := &invokeParts{names: op.In, in: in, out: out}
	iv.parts.Store(p)
	return p, nil
}

// call performs the bus invocation under the configured policy/breaker.
// An attempt may run on a helper goroutine (PerAttemptTimeout), so it
// reads no instance state but what was fixed before it started: the
// budget, the bus, the request and the id of the span its bus span is
// parented at.
func (iv *Invoke) call(ctx *Ctx, req []string) ([]string, error) {
	parent := ctx.span.SpanID()
	if iv.Retry == nil && iv.Breaker == nil {
		return ctx.Engine.Bus.InvokeCtx(ctx.Context(), parent, iv.Service, req)
	}
	attempt := func(n int) ([]string, error) {
		if iv.Breaker != nil && !iv.Breaker.Allow() {
			return nil, resilience.RefusedError(iv.Service)
		}
		return ctx.Engine.Bus.InvokeCtx(ctx.Context(), parent, iv.Service, req)
	}

	// Breaker accounting and span notes both run in the observer — i.e.
	// in this goroutine, never in the abandoned goroutine of a timed-out
	// attempt.
	m := ctx.Inst.Obs().M()
	notes := resilience.Notes(ctx.span)
	account := func(err error) {
		if iv.Breaker == nil {
			return
		}
		before := iv.Breaker.State()
		switch {
		case err == nil:
			iv.Breaker.OnSuccess()
		case errors.Is(err, resilience.ErrOpen):
			// A refused call is not a service failure.
			m.Counter("breaker.refusals").Inc()
		default:
			iv.Breaker.OnFailure()
		}
		if after := iv.Breaker.State(); after != before {
			ctx.span.Set("breaker", before.String()+"->"+after.String())
			m.Counter("breaker.transitions").Inc()
			m.Counter("breaker.transitions." + after.String()).Inc()
		}
	}
	obs := resilience.Observer{
		OnAttempt: func(n, max int) {
			m.Counter("retry.attempts").Inc()
			notes.OnAttempt(n, max)
		},
		OnSuccess: func(n int) {
			account(nil)
			m.Counter("retry.successes").Inc()
		},
		OnFailure: func(n int, err error) {
			account(err)
			m.Counter("retry.failures").Inc()
		},
		OnBackoff: func(n int, d time.Duration) {
			notes.OnBackoff(n, d)
			m.Counter("retry.backoffs").Inc()
			m.Histogram("retry.backoff_ms").ObserveDuration(d)
		},
	}
	resp, err := resilience.Do(iv.Retry, obs, attempt)
	if ab := resilience.Abandoned(err); ab != nil {
		m.Counter("retry.giveups").Inc()
		m.Counter("retry.giveups." + ab.Reason).Inc()
	}
	return resp, err
}

// deadLetter records an abandoned invocation and either absorbs it
// (degraded completion) or raises the retryExhausted fault.
func (iv *Invoke) deadLetter(ctx *Ctx, ab *resilience.AbandonedError) error {
	key := iv.ActivityName
	if iv.DeadLetterKey != nil {
		if v, err := ctx.EvalXPath(iv.DeadLetterKey); err == nil {
			key = v.AsString()
		}
	}
	if ctx.Engine.DeadLetters != nil {
		ctx.Engine.DeadLetters.Add(resilience.DeadLetter{
			Activity: iv.ActivityName,
			Target:   iv.Service,
			Key:      key,
			Attempts: ab.Attempts,
			Reason:   ab.Reason,
			LastErr:  fmt.Sprint(ab.Err),
		})
	}
	ctx.span.Set("deadletter_key", key).SetOutcome(obsv.OutcomeDeadLettered)
	if iv.AbsorbExhausted {
		for _, varName := range iv.Outputs {
			if err := ctx.SetScalar(varName, "DEADLETTERED:"+key); err != nil {
				return err
			}
		}
		return nil
	}
	return &Fault{Name: FaultRetryExhausted, Activity: iv.ActivityName, Wrapped: ab}
}

// --- Snippet ---

// Snippet embeds code directly into the process logic — the analog of
// IBM's Java-Snippets (and of Oracle's Java embedding). The paper's
// workaround realizations of the Sequential Set Access, Tuple IUD, and
// Synchronization patterns are built from these.
type Snippet struct {
	ActivityName string
	Fn           func(ctx *Ctx) error
}

// NewSnippet builds a code snippet activity.
func NewSnippet(name string, fn func(ctx *Ctx) error) *Snippet {
	return &Snippet{ActivityName: name, Fn: fn}
}

// Name implements Activity.
func (s *Snippet) Name() string { return s.ActivityName }

// Execute implements Activity.
func (s *Snippet) Execute(ctx *Ctx) error { return s.Fn(ctx) }

// --- Fault ---

// Fault is a named process fault.
type Fault struct {
	Name     string
	Activity string
	Wrapped  error
}

// Error implements error.
func (f *Fault) Error() string {
	msg := fmt.Sprintf("fault %s (at %s)", f.Name, f.Activity)
	if f.Wrapped != nil {
		msg += ": " + f.Wrapped.Error()
	}
	return msg
}

// Unwrap exposes the wrapped cause.
func (f *Fault) Unwrap() error { return f.Wrapped }

// ActivityNames flattens the names of every activity of a tree, parents
// first (Describe); a JournaledActivity and the activity it wraps share
// one name.
func ActivityNames(a Activity) (out []string) {
	walkActivities(a, func(x Activity) { out = append(out, x.Name()) })
	return out
}

// composite is an activity that holds others: Sequence, While,
// JournaledActivity, and bis's AtomicSQLSequence, which this package
// cannot name.
type composite interface {
	Nested() []Activity
}

// Nested implements composite.
func (s *Sequence) Nested() []Activity { return s.Children }

// Nested implements composite.
func (w *While) Nested() []Activity { return []Activity{w.Body} }

// walkActivities calls visit on every activity of the tree, parents first.
func walkActivities(x Activity, visit func(Activity)) {
	if x == nil {
		return
	}
	visit(x)
	if c, ok := x.(composite); ok {
		for _, n := range c.Nested() {
			walkActivities(n, visit)
		}
	}
}

// CursorLoop is the one implementation behind bis.CursorLoop and
// orasoa.CursorLoop: a while activity whose body first binds the Row of
// the XML RowSet in setVar at the 1-based position in posVar to
// currentVar, then runs body. product prefixes the out-of-range error.
// The bind lends the row to currentVar without copying it (bindRow).
func CursorLoop(product, name, setVar, currentVar, posVar string, body Activity) Activity {
	bind := NewSnippet(name+"_bind", func(ctx *Ctx) error {
		sv, err := ctx.Variable(setVar)
		if err != nil {
			return err
		}
		cv, err := ctx.Variable(currentVar)
		if err != nil {
			return err
		}
		pos, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		if !bindRow(sv, cv, int(pos)-1) {
			return fmt.Errorf("%s: cursor position %d out of range in %s", product, pos, setVar)
		}
		return nil
	})
	advance := NewSnippet(name+"_advance", func(ctx *Ctx) error {
		pos, err := ctx.Inst.MustVariable(posVar).Int()
		if err != nil {
			return err
		}
		return ctx.SetScalar(posVar, strconv.FormatInt(pos+1, 10))
	})
	cond := Cond(fmt.Sprintf("$%s <= count($%s/Row)", posVar, setVar))
	return NewSequence(name,
		NewSnippet(name+"_init", func(ctx *Ctx) error {
			return ctx.SetScalar(posVar, "1")
		}),
		NewWhile(name+"_while", cond,
			NewSequence(name+"_iteration", bind, body, advance)),
	)
}
