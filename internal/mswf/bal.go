package mswf

import (
	"fmt"
	"sync"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
	"wfsql/internal/wsbus"
)

// This file is the Base Activity Library (BAL): proprietary functionality
// for control flow, conditions, and code execution. Per the paper, BAL
// provides no activity type considering SQL issues — SQL support lives in
// the Custom Activity Library (cal.go).

// SequenceActivity executes children in order.
type SequenceActivity struct {
	ActivityName string
	Children     []Activity
}

// NewSequence builds a sequence.
func NewSequence(name string, children ...Activity) *SequenceActivity {
	return &SequenceActivity{ActivityName: name, Children: children}
}

// Name implements Activity.
func (s *SequenceActivity) Name() string { return s.ActivityName }

// Execute implements Activity.
func (s *SequenceActivity) Execute(c *Context) error {
	for _, ch := range s.Children {
		if err := runActivity(c, ch); err != nil {
			return err
		}
	}
	return nil
}

// RuleCondition gates while loops. WF conditions are code (C#/VB) or
// declarative rules; here they are Go predicates, possibly resolved by
// name from the runtime (code-separation).
type RuleCondition func(c *Context) (bool, error)

// WhileActivity repeats its body while the condition holds.
type WhileActivity struct {
	ActivityName  string
	Condition     RuleCondition
	ConditionName string // resolved from the runtime when Condition is nil
	Body          Activity
}

// NewWhile builds a while activity.
func NewWhile(name string, cond RuleCondition, body Activity) *WhileActivity {
	return &WhileActivity{ActivityName: name, Condition: cond, Body: body}
}

// Name implements Activity.
func (w *WhileActivity) Name() string { return w.ActivityName }

// Execute implements Activity.
func (w *WhileActivity) Execute(c *Context) error {
	cond := w.Condition
	if cond == nil {
		var err error
		if cond, err = c.Runtime.rule(w.ConditionName); err != nil {
			return fmt.Errorf("%s: %w", w.ActivityName, err)
		}
	}
	for {
		ok, err := cond(c)
		if err != nil {
			return fmt.Errorf("%s: condition: %w", w.ActivityName, err)
		}
		if !ok {
			return nil
		}
		if err := runActivity(c, w.Body); err != nil {
			return err
		}
	}
}

// CodeActivity executes arbitrary code in the workflow — the mechanism the
// paper identifies as WF's only (workaround) route to the internal-data
// patterns before custom SQL activity types exist.
type CodeActivity struct {
	ActivityName string
	Handler      func(c *Context) error
	HandlerName  string // resolved from the runtime when Handler is nil
}

// NewCode builds a code activity with an inline handler (code-only
// authoring).
func NewCode(name string, handler func(c *Context) error) *CodeActivity {
	return &CodeActivity{ActivityName: name, Handler: handler}
}

// Name implements Activity.
func (a *CodeActivity) Name() string { return a.ActivityName }

// Execute implements Activity.
func (a *CodeActivity) Execute(c *Context) error {
	h := a.Handler
	if h == nil {
		var err error
		h, err = c.Runtime.handler(a.HandlerName)
		if err != nil {
			return fmt.Errorf("%s: %w", a.ActivityName, err)
		}
	}
	return h(c)
}

// InvokeWebServiceActivity calls a service — WF's communication activity,
// used by the running example for OrderFromSupplier. The service is either
// bound directly (code authoring) or resolved by name from the runtime
// (markup authoring). The activity reads input host variables into message
// parts and writes response parts back to host variables.
type InvokeWebServiceActivity struct {
	ActivityName string
	Service      func(map[string]string) (map[string]string, error)
	ServiceName  string            // resolved from the runtime when Service is nil
	Inputs       map[string]string // message part -> host variable name
	Outputs      map[string]string // message part -> host variable name

	// Retry re-invokes the service on transient errors; attempts and
	// backoff waits are noted on the activity's span. A panicking service is
	// recovered into a transient error instead of tearing down the host.
	Retry *resilience.Policy
	// DeadLetterKeyPart names the request message part whose value keys a
	// dead-letter record when retries are exhausted.
	DeadLetterKeyPart string
	// AbsorbExhausted completes the activity in a degraded state instead
	// of faulting: output host variables receive "DEADLETTERED:<key>" and
	// the workflow continues (the dead-letter log holds the evidence).
	AbsorbExhausted bool

	// outKeys are the output host variables' memo keys. The activity
	// tree is frozen once deployed and shared by every instance, so they
	// are built once, on first execution.
	keysOnce sync.Once
	outKeys  []string
}

// WithRetry attaches a retry policy.
func (a *InvokeWebServiceActivity) WithRetry(p *resilience.Policy) *InvokeWebServiceActivity {
	a.Retry = p
	return a
}

// WithDeadLetter configures dead-lettering of exhausted invocations.
func (a *InvokeWebServiceActivity) WithDeadLetter(keyPart string, absorb bool) *InvokeWebServiceActivity {
	a.DeadLetterKeyPart = keyPart
	a.AbsorbExhausted = absorb
	return a
}

// Name implements Activity.
func (a *InvokeWebServiceActivity) Name() string { return a.ActivityName }

// Execute implements Activity. The call runs as one journaled invoke
// effect that publishes the output host variables (including degraded
// DEADLETTERED markers): a resumed instance replays the response without
// re-invoking the service. Invoke memos are durable as soon as they are
// journaled — a service's side effects do not roll back with a transaction.
func (a *InvokeWebServiceActivity) Execute(c *Context) error {
	a.keysOnce.Do(func() {
		for _, hv := range a.Outputs {
			a.outKeys = append(a.outKeys, "out:"+hv)
		}
	})
	h := hostVars{c: c, outputs: a.outKeys}
	return c.Effect(c.Current(), a.ActivityName, journal.EffectInvoke,
		func() error { return a.executeLive(c) }, journal.Outcome{Save: h.save, Restore: h.restore})
}

// executeLive performs the actual invocation (no journaling).
func (a *InvokeWebServiceActivity) executeLive(c *Context) error {
	// Resolved per execution, never stored: the activity tree is shared
	// by every concurrent instance of the workflow and must stay
	// read-only.
	svc := a.Service
	if svc == nil && a.ServiceName != "" {
		var err error
		svc, err = c.Runtime.service(a.ServiceName)
		if err != nil {
			return fmt.Errorf("%s: %w", a.ActivityName, err)
		}
	}
	if svc == nil {
		return fmt.Errorf("%s: no service bound", a.ActivityName)
	}
	req := map[string]string{}
	for part, hv := range a.Inputs {
		req[part] = c.GetString(hv)
	}

	call := func(int) (map[string]string, error) { return safeCall(svc, req) }
	var resp map[string]string
	var err error
	if a.Retry == nil {
		resp, err = call(0)
	} else {
		resp, err = resilience.Do(a.Retry, resilience.Notes(c.Current()), call)
	}
	if ab := resilience.Abandoned(err); ab != nil {
		key := req[a.DeadLetterKeyPart]
		c.Runtime.DeadLetters.Add(resilience.DeadLetter{
			Activity: a.ActivityName,
			Target:   a.serviceLabel(),
			Key:      key,
			Attempts: ab.Attempts,
			Reason:   ab.Reason,
			LastErr:  ab.Err.Error(),
		})
		c.Current().Set("deadletter_key", key).SetOutcome(obsv.OutcomeDeadLettered)
		if a.AbsorbExhausted {
			for _, hv := range a.Outputs {
				c.Set(hv, "DEADLETTERED:"+key)
			}
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", a.ActivityName, err)
	}
	for part, hv := range a.Outputs {
		v, ok := resp[part]
		if !ok {
			return fmt.Errorf("%s: response missing part %s", a.ActivityName, part)
		}
		c.Set(hv, v)
	}
	return nil
}

// safeCall invokes the service, converting a panic into a transient
// error (the WF host must survive a misbehaving proxy).
func safeCall(svc func(map[string]string) (map[string]string, error), req map[string]string) (resp map[string]string, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, wsbus.Transient(fmt.Errorf("service panicked: %v", r))
		}
	}()
	return svc(req)
}

func (a *InvokeWebServiceActivity) serviceLabel() string {
	if a.ServiceName != "" {
		return a.ServiceName
	}
	return "(bound service)"
}
