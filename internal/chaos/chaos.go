// Package chaos provides deterministic, seedable fault injectors for the
// reproduction's two external dependencies: Web services on the wsbus
// (error / latency / panic injection via a handler decorator) and the
// sqldb engine (an exec-hook fault plan that can fail the Nth statement or
// commit, plus a fault-injecting session wrapper).
//
// Every injector is driven by an explicit plan with a seed, so a chaos
// test that failed can be replayed exactly. Injected failures happen
// *before* the wrapped handler or statement runs — an injected fault never
// leaves a partial side effect behind, which is what lets the chaos test
// matrix assert exactly-once visible effects under retries.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wfsql/internal/wsbus"
)

// FaultPlan drives fault injection for one decorated service. The first
// PanicFirst matching calls panic, the next SlowFirst calls sleep Delay
// and then fail, the next FailFirst calls fail fast; after those
// deterministic windows each call fails with probability FailRate (seeded,
// reproducible). Calls not selected for injection pass through to the real
// handler untouched.
type FaultPlan struct {
	// PanicFirst panics on the first N matching calls (exercises the
	// bus's panic recovery).
	PanicFirst int
	// SlowFirst injects Delay of latency on the next N matching calls and
	// then fails them (a hung dependency: the inner handler is NOT
	// invoked, so a caller that times out early loses nothing).
	SlowFirst int
	Delay     time.Duration
	// FailFirst fails the next N matching calls fast.
	FailFirst int
	// FailRate is the probability a later call fails (0 disables).
	FailRate float64
	// Permanent marks injected errors non-retryable (wsbus.Permanent
	// instead of wsbus.Transient).
	Permanent bool
	// Match restricts injection to requests it accepts (nil: all).
	// Non-matching calls neither fail nor advance the call counter.
	Match func(req map[string]string) bool
	// ErrText overrides the injected error text.
	ErrText string

	// mu guards every mutable field below. rand.Rand is NOT safe for
	// concurrent use, and a decorated service is routinely invoked from
	// parallel workflow branches, so rng must only ever be touched with
	// mu held (decide owns the only access). TestFaultPlanConcurrentUse
	// pins this invariant under the race detector.
	mu       sync.Mutex
	rng      *rand.Rand
	seed     int64
	calls    int // matching calls seen
	injected int // calls that were failed/panicked/delayed
}

// NewFaultPlan creates a plan whose random tail (FailRate) is driven by
// the seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Calls returns how many matching calls the plan has seen.
func (p *FaultPlan) Calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Injected returns how many calls were injected with a fault (including
// panics and slow-fails).
func (p *FaultPlan) Injected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// verdict is the decision for one call.
type verdict int

const (
	pass verdict = iota
	failFast
	slowFail
	panicNow
)

// decide consumes one matching call and returns the injection verdict.
func (p *FaultPlan) decide() verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	n := p.calls
	switch {
	case n <= p.PanicFirst:
		p.injected++
		return panicNow
	case n <= p.PanicFirst+p.SlowFirst:
		p.injected++
		return slowFail
	case n <= p.PanicFirst+p.SlowFirst+p.FailFirst:
		p.injected++
		return failFast
	}
	if p.FailRate > 0 {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.seed))
		}
		if p.rng.Float64() < p.FailRate {
			p.injected++
			return failFast
		}
	}
	return pass
}

// err builds the injected error with the plan's classification.
func (p *FaultPlan) err(mode string) error {
	text := p.ErrText
	if text == "" {
		text = "injected fault"
	}
	e := fmt.Errorf("chaos: %s (%s)", text, mode)
	if p.Permanent {
		return wsbus.Permanent(e)
	}
	return wsbus.Transient(e)
}

// Wrap returns the operation with its handler behind the plan. Match,
// when set, sees the request by part name.
func (p *FaultPlan) Wrap(op wsbus.Operation) wsbus.Operation {
	h := op.Handler
	op.Handler = func(in []string) ([]string, error) {
		if p.Match != nil && !p.Match(wsbus.Named(op.In, in)) {
			return h(in)
		}
		switch p.decide() {
		case panicNow:
			panic(fmt.Sprintf("chaos: injected panic (%s)", p.ErrText))
		case slowFail:
			time.Sleep(p.Delay)
			return nil, p.err("slow")
		case failFast:
			return nil, p.err("fast")
		}
		return h(in)
	}
	return op
}

// Inject decorates a registered bus service in place.
func Inject(bus *wsbus.Bus, service string, p *FaultPlan) error {
	return bus.Decorate(service, func(op wsbus.Operation) wsbus.Handler { return p.Wrap(op).Handler })
}
