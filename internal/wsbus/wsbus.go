// Package wsbus is an in-process service bus standing in for the Web
// services the surveyed products invoke from workflows. The paper's
// running example calls a Web service OrderFromSupplier from an invoke
// activity; Figure 1 contrasts the *adapter* technology (data management
// masked as a service on a bus like this one) with *SQL inline support*
// (data management in the process logic). Both sides of that contrast are
// implemented here and in the product layers.
//
// A service is one Operation: the names of its request and reply parts,
// declared once at registration as a WSDL operation declares its message
// parts, and a handler over part vectors, one value per declared part in
// declared order. A caller resolves its parts to the operation's indices
// once, so a call builds no name/value map. Message, a request by part
// name, is the edge of Invoke for callers that hold no layout: it is
// packed into the same vector path. An injectable
// per-call latency lets benchmarks model remote invocation cost.
//
// The bus is safe for concurrent use: the worker-pool instance
// scheduler dispatches invokes from many instance goroutines at once,
// handlers run outside the bus mutex (a slow service must not serialize
// unrelated invocations), and the attempt/success/panic counters are
// atomics.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfsql/internal/obsv"
)

// Operation is a service operation: its request parts In and reply parts
// Out, by name, and the handler that answers a request vector (one value
// per In part) with a reply vector (one value per Out part).
type Operation struct {
	In, Out []string
	Handler Handler
}

// Handler implements an operation over part vectors.
type Handler func(in []string) ([]string, error)

// Message is a request or reply by part name (a simplified WSDL
// message), for callers that hold no part resolution.
type Message map[string]string

// Pack lays a request by name out as the operation's request vector: a
// declared part the request lacks is "", a part the operation does not
// declare is dropped.
func (op Operation) Pack(req Message) []string {
	in := make([]string, len(op.In))
	for i, part := range op.In {
		in[i] = req[part]
	}
	return in
}

// Named names a vector's values by its parts (a reply by Out, a request
// by In).
func Named(parts, vec []string) Message {
	m := make(Message, len(parts))
	for i, part := range parts {
		m[part] = vec[i]
	}
	return m
}

// Layout places each part's entry of byPart (a caller's expression or
// host variable per part) at the part's index in parts; a part byPart
// names that parts lacks is an error.
func Layout[T any](parts []string, byPart map[string]T) ([]T, error) {
	out := make([]T, len(parts))
	for part, v := range byPart {
		i := slices.Index(parts, part)
		if i < 0 {
			return nil, fmt.Errorf("operation declares no part %s", part)
		}
		out[i] = v
	}
	return out, nil
}

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
	services  map[string]Operation
	counters  map[string]string // per-service "bus.calls.<name>" counter names, built at Register time
	latency   time.Duration
	obs       *obsv.Observability
	attempts  atomic.Int64
	successes atomic.Int64
	panics    atomic.Int64
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
	return &Bus{services: map[string]Operation{}, counters: map[string]string{}}
}

// Register installs a service under a name. Re-registering replaces the
// previous operation.
func (b *Bus) Register(name string, op Operation) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.services[name] = op
	b.counters[name] = "bus.calls." + name
}

// Decorate replaces the handler of a registered service with the one a
// middleware builds from its operation (used by the chaos layer to inject
// faults and latency without the service knowing); the declared parts
// stay. It fails if the service is not registered.
func (b *Bus) Decorate(name string, mw func(Operation) Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	op, ok := b.services[name]
	if !ok {
		return fmt.Errorf("wsbus: no such service %s", name)
	}
	op.Handler = mw(op)
	b.services[name] = op
	return nil
}

// Operation returns a registered service's operation.
func (b *Bus) Operation(name string) (Operation, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	op, ok := b.services[name]
	return op, ok
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
func (b *Bus) Attempts() int64 { return b.attempts.Load() }

// Successes returns the number of invocations whose handler completed
// without error.
func (b *Bus) Successes() int64 { return b.successes.Load() }

// Panics returns the number of handler panics recovered by Invoke.
func (b *Bus) Panics() int64 { return b.panics.Load() }

// Invoke calls the named service with a request by part name and returns
// its reply by part name, through the vector path of InvokeCtx. An
// unknown service is a permanent error (retries cannot register it);
// handler panics are recovered into transient errors so one crashing
// service cannot take down the engine. Its bus span is a root.
func (b *Bus) Invoke(service string, req Message) (Message, error) {
	op, _ := b.Operation(service)
	out, err := b.InvokeCtx(context.Background(), 0, service, op.Pack(req))
	if err != nil {
		return nil, err
	}
	return Named(op.Out, out), nil
}

// InvokeCtx calls the named service with a request vector laid out by
// its operation's In parts, under a caller budget, with the call's bus
// span parented at parent (0: a root); the reply is laid out by its Out
// parts. A context that is already
// done refuses the call before the attempt is counted; a context that
// expires during the injected latency abandons the wait immediately
// (the stand-in for tearing down a socket mid-call). Context errors
// are classified Permanent — a caller whose deadline has passed gains
// nothing from retrying, even though context.DeadlineExceeded itself
// reports Temporary() true — so retry policies stop instead of burning
// the remaining budget on attempts that cannot be awaited.
func (b *Bus) InvokeCtx(ctx context.Context, parent uint64, service string, in []string) ([]string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.RLock()
	op, ok := b.services[service]
	callCounter := b.counters[service]
	lat := b.latency
	obs := b.obs
	b.mu.RUnlock()
	span := obs.T().Start(parent, obsv.KindBus, service)
	obs.M().Counter("bus.calls").Inc()
	if !ok { // unregistered service: still counted, off the cached path
		obs.M().Counter("bus.calls." + service).Inc()
		return nil, b.fail(obs, span, Permanent(fmt.Errorf("wsbus: no such service %s", service)))
	}
	obs.M().Counter(callCounter).Inc()
	if err := ctx.Err(); err != nil {
		obs.M().Counter("bus.deadline_refused").Inc()
		return nil, b.fail(obs, span, Permanent(fmt.Errorf("wsbus: %s: caller budget exhausted: %w", service, err)))
	}
	if len(in) != len(op.In) {
		return nil, b.fail(obs, span, Permanent(fmt.Errorf("wsbus: %s: request of %d parts, operation declares %d", service, len(in), len(op.In))))
	}
	b.attempts.Add(1) // counted before latency and handler outcome (see package doc)
	if lat > 0 {
		t := time.NewTimer(lat)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			obs.M().Counter("bus.deadline_abandoned").Inc()
			err := b.fail(obs, span, Permanent(fmt.Errorf("wsbus: %s: caller budget exhausted mid-call: %w", service, ctx.Err())))
			obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
			return nil, err
		}
	}
	out, err := b.safeCall(op.Handler, in)
	if err == nil && len(out) != len(op.Out) {
		err = fmt.Errorf("reply of %d parts, operation declares %d", len(out), len(op.Out))
	}
	if err != nil {
		err = b.fail(obs, span, fmt.Errorf("wsbus: service %s: %w", service, err))
		obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
		return nil, err
	}
	b.successes.Add(1)
	span.End(obsv.OutcomeOK)
	obs.M().Histogram("bus.latency_ms").ObserveDuration(span.Duration())
	return out, nil
}

// fail counts a failed call and ends its span with the error.
func (b *Bus) fail(obs *obsv.Observability, span *obsv.Span, err error) error {
	obs.M().Counter("bus.errors").Inc()
	span.Set("error", err.Error()).End(obsv.OutcomeFault)
	return err
}

// safeCall runs a handler, converting panics into transient errors.
func (b *Bus) safeCall(h Handler, in []string) (out []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			b.panics.Add(1)
			out, err = nil, Transient(fmt.Errorf("handler panicked: %v", r))
		}
	}()
	return h(in)
}

// Has reports whether a service is registered.
func (b *Bus) Has(service string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.services[service]
	return ok
}
