// Package wsbus is an in-process service bus standing in for the Web
// services the surveyed products invoke from workflows. The paper's
// running example calls a Web service OrderFromSupplier from an invoke
// activity; Figure 1 contrasts the *adapter* technology (data management
// masked as a service on a bus like this one) with *SQL inline support*
// (data management in the process logic). Both sides of that contrast are
// implemented here and in the product layers.
//
// Requests and responses are flat name/value maps, matching the
// message-part granularity the paper's examples use. An injectable
// per-call latency lets benchmarks model remote invocation cost.
//
// The bus is safe for concurrent use: the worker-pool instance
// scheduler dispatches invokes from many instance goroutines at once,
// handlers run outside the bus mutex (a slow service must not serialize
// unrelated invocations), and the attempt/success/panic counters are
// updated under it.
//
// # Fault semantics
//
// Invoke never lets a handler panic escape: panics are recovered into
// transient errors (a crashed service is indistinguishable from a dropped
// connection to the caller). Services can classify their own failures with
// Transient and Permanent so retry policies (internal/resilience) can
// discriminate; unclassified errors default to retryable.
//
// # Counter semantics
//
// Attempts counts every dispatched invocation — the attempt is counted as
// soon as the service is resolved, *before* the injected latency elapses
// and before the handler runs, so a call that then sleeps and fails still
// counts as one attempt. Successes counts only invocations whose handler
// returned without error. Retry tests depend on both counters; Calls is a
// legacy alias for Attempts.
package wsbus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wfsql/internal/obsv"
)

// Message is a flat set of named parts (a simplified WSDL message).
type Message map[string]string

// Handler implements a service operation.
type Handler func(req Message) (Message, error)

// classifiedError marks an error transient or permanent for retry
// policies. It satisfies the Temporary() bool convention that
// resilience.DefaultClassify inspects.
type classifiedError struct {
	err       error
	transient bool
}

// Error implements error.
func (e *classifiedError) Error() string {
	if e.transient {
		return "transient: " + e.err.Error()
	}
	return "permanent: " + e.err.Error()
}

// Unwrap exposes the cause.
func (e *classifiedError) Unwrap() error { return e.err }

// Temporary implements the classification convention.
func (e *classifiedError) Temporary() bool { return e.transient }

// Transient marks an error as retryable (a fault that may heal: timeout,
// overload, crash). Returns nil for nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err: err, transient: true}
}

// Permanent marks an error as non-retryable (a fault retries cannot fix:
// validation failure, unknown operation). Returns nil for nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err: err, transient: false}
}

// IsTransient reports whether the error chain is explicitly marked
// transient. Unmarked errors report false here but are still retried by
// resilience.DefaultClassify; use Classified to distinguish "unmarked"
// from "marked permanent".
func IsTransient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// Classified reports the classification carried by the error chain and
// whether one was present at all.
func Classified(err error) (transient, ok bool) {
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary(), true
	}
	return false, false
}

// Bus is a registry of named services.
type Bus struct {
	mu        sync.RWMutex
	services  map[string]Handler
	counters  map[string]string // per-service "bus.calls.<name>" counter names, built at Register time
	latency   time.Duration
	attempts  int64
	successes int64
	panics    int64
	obs       *obsv.Observability
}

// SetObservability attaches (or with nil detaches) a tracing/metrics
// bundle: every call then emits a bus span, parented at the span its
// caller passes (InvokeCtx), and feeds the bus.calls / bus.errors
// counters and the bus.latency_ms histogram.
func (b *Bus) SetObservability(o *obsv.Observability) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs = o
}

// New creates an empty bus.
func New() *Bus {
	return &Bus{services: map[string]Handler{}, counters: map[string]string{}}
}

// Register installs a service under a name. Re-registering replaces the
// previous handler.
func (b *Bus) Register(name string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.services[name] = h
	b.counters[name] = "bus.calls." + name
}

// Decorate wraps the registered handler of a service with a middleware
// (used by the chaos layer to inject faults and latency without the
// service knowing). It fails if the service is not registered.
func (b *Bus) Decorate(name string, mw func(Handler) Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.services[name]
	if !ok {
		return fmt.Errorf("wsbus: no such service %s", name)
	}
	b.services[name] = mw(h)
	return nil
}

// SetLatency injects a synthetic per-call latency, modelling network and
// SOAP-stack overhead for benchmarks. Zero disables it.
func (b *Bus) SetLatency(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.latency = d
}

// Attempts returns the number of invocations dispatched (counted before
// the injected latency and before the handler runs — failed and timed-out
// calls count).
func (b *Bus) Attempts() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.attempts
}

// Successes returns the number of invocations whose handler completed
// without error.
func (b *Bus) Successes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.successes
}

// Panics returns the number of handler panics recovered by Invoke.
func (b *Bus) Panics() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.panics
}

// Invoke calls the named service. An unknown service is a permanent error
// (retries cannot register it); handler panics are recovered into
// transient errors so one crashing service cannot take down the engine.
// Its bus span is a root.
func (b *Bus) Invoke(service string, req Message) (Message, error) {
	return b.InvokeCtx(context.Background(), 0, service, req)
}

// InvokeCtx is Invoke with a caller budget and the span the call's bus
// span is parented at (0: a root). A context that is already
// done refuses the call before the attempt is counted; a context that
// expires during the injected latency abandons the wait immediately
// (the stand-in for tearing down a socket mid-call). Context errors
// are classified Permanent — a caller whose deadline has passed gains
// nothing from retrying, even though context.DeadlineExceeded itself
// reports Temporary() true — so retry policies stop instead of burning
// the remaining budget on attempts that cannot be awaited.
func (b *Bus) InvokeCtx(ctx context.Context, parent uint64, service string, req Message) (Message, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.RLock()
	h, ok := b.services[service]
	callCounter := b.counters[service]
	lat := b.latency
	obs := b.obs
	b.mu.RUnlock()
	if callCounter == "" { // unregistered service: still counted, off the cached path
		callCounter = "bus.calls." + service
	}
	span := obs.T().Start(parent, obsv.KindBus, service)
	obs.M().Counter("bus.calls").Inc()
	obs.M().Counter(callCounter).Inc()
	if !ok {
		err := Permanent(fmt.Errorf("wsbus: no such service %s", service))
		obs.M().Counter("bus.errors").Inc()
		span.Set("error", err.Error()).End(obsv.OutcomeFault)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		err = Permanent(fmt.Errorf("wsbus: %s: caller budget exhausted: %w", service, err))
		obs.M().Counter("bus.errors").Inc()
		obs.M().Counter("bus.deadline_refused").Inc()
		span.Set("error", err.Error()).End(obsv.OutcomeFault)
		return nil, err
	}
	b.mu.Lock()
	b.attempts++ // counted before latency and handler outcome (see package doc)
	b.mu.Unlock()
	if lat > 0 {
		t := time.NewTimer(lat)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			err := Permanent(fmt.Errorf("wsbus: %s: caller budget exhausted mid-call: %w", service, ctx.Err()))
			obs.M().Counter("bus.errors").Inc()
			obs.M().Counter("bus.deadline_abandoned").Inc()
			span.Set("error", err.Error()).End(obsv.OutcomeFault)
			obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
			return nil, err
		}
	}
	resp, err := b.safeCall(h, req)
	if err != nil {
		err = fmt.Errorf("wsbus: service %s: %w", service, err)
		obs.M().Counter("bus.errors").Inc()
		span.Set("error", err.Error()).End(obsv.OutcomeFault)
		obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
		return nil, err
	}
	b.mu.Lock()
	b.successes++
	b.mu.Unlock()
	span.End(obsv.OutcomeOK)
	obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
	return resp, nil
}

// safeCall runs a handler, converting panics into transient errors.
func (b *Bus) safeCall(h Handler, req Message) (resp Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			b.panics++
			b.mu.Unlock()
			resp = nil
			err = Transient(fmt.Errorf("handler panicked: %v", r))
		}
	}()
	return h(req)
}

// Has reports whether a service is registered.
func (b *Bus) Has(service string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.services[service]
	return ok
}
