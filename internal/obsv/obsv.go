// Package obsv is a zero-dependency tracing and metrics subsystem for the
// workflow/SQL reproduction. It provides:
//
//   - hierarchical spans (instance → activity → SQL statement / bus call)
//     labeled with the product stack (BIS / WF / Oracle), the paper's
//     pattern id, and an outcome;
//   - a registry of named counters and latency histograms (retry attempts,
//     breaker transitions, dead-letters, journal appends/replays, sqldb
//     parse/plan/exec time, engine-lock wait, statement-cache hits and
//     misses, rows scanned vs. returned, index-hit ratio, and the
//     instance scheduler's throughput counters and queue-wait/run-time
//     histograms);
//   - pluggable exporters: an in-memory Collector for tests and a JSONL
//     trace writer for the -trace flag on cmd/wfrun and cmd/bpelrun.
//
// The subsystem is deliberately stdlib-only: no OpenTelemetry, no external
// sinks. Everything an executable Figure-4/6/8 run measures about itself
// flows through one Observability bundle.
package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies a span within the hierarchy.
type SpanKind string

const (
	KindInstance SpanKind = "instance" // one workflow instance run
	KindActivity SpanKind = "activity" // one activity execution
	KindSQL      SpanKind = "sql"      // one SQL statement
	KindBus      SpanKind = "bus"      // one service-bus call
	KindJournal  SpanKind = "journal"  // journal append/checkpoint/recover
)

// Outcome is the terminal status of a span.
type Outcome string

const (
	OutcomeOK           Outcome = "ok"
	OutcomeFault        Outcome = "fault"
	OutcomeReplayed     Outcome = "replayed"     // satisfied from the journal
	OutcomeDeadLettered Outcome = "deadlettered" // absorbed via dead-letter
	OutcomeCrashed      Outcome = "crashed"      // chaos crash point fired
)

// Span is one timed node in the trace tree. Spans are created by
// Tracer.Start and closed by (*Span).End; between those calls attributes
// may be attached with Set. A Span's fields are owned by the goroutine
// that runs the spanned work — concurrent Set calls on the same span are
// guarded by the span's own mutex so Flow branches can annotate safely.
type Span struct {
	ID       uint64            `json:"id"`
	Parent   uint64            `json:"parent,omitempty"`
	Kind     SpanKind          `json:"kind"`
	Name     string            `json:"name"`
	Stack    string            `json:"stack,omitempty"`    // BIS | WF | Oracle
	Instance int64             `json:"instance,omitempty"` // engine instance id
	Start    time.Time         `json:"start"`
	EndTime  time.Time         `json:"end"`
	Outcome  Outcome           `json:"outcome"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	tracer *Tracer
	mu     sync.Mutex
	ended  bool
}

// Set attaches (or overwrites) a string attribute on the span.
func (s *Span) Set(key, value string) *Span {
	if s == nil {
		return s
	}
	s.mu.Lock()
	if s.Attrs == nil {
		// Pre-size for the typical attribute count (the sqldb statement
		// spans set up to seven) so the map never rehashes mid-span.
		s.Attrs = make(map[string]string, 8)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
	return s
}

// SetOutcome records the terminal status without ending the span.
func (s *Span) SetOutcome(o Outcome) *Span {
	if s == nil {
		return s
	}
	s.mu.Lock()
	s.Outcome = o
	s.mu.Unlock()
	return s
}

// SpanID returns the span's id, or 0 for a nil span.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// Duration is EndTime-Start for an ended span, 0 otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndTime.IsZero() {
		return 0
	}
	return s.EndTime.Sub(s.Start)
}

// End closes the span with the given outcome (OutcomeOK when o is empty
// and no outcome was recorded earlier) and hands it to the tracer's
// sinks. End is idempotent; only the first call exports.
func (s *Span) End(o Outcome) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.EndTime = time.Now()
	if o != "" {
		s.Outcome = o
	} else if s.Outcome == "" {
		s.Outcome = OutcomeOK
	}
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.export(s)
	}
}

// SpanSink receives finished spans. Implementations must be safe for
// concurrent use; Flow branches end spans from multiple goroutines.
type SpanSink interface {
	ExportSpan(*Span)
}

// Tracer creates spans and fans finished ones out to sinks; spans are
// stamped with time.Now. The zero value has no sinks. A nil *Tracer is
// safe everywhere —
// Start returns a nil span and every Span method no-ops — so call sites
// never need to guard on whether observability is attached.
type Tracer struct {
	mu      sync.Mutex                 // serializes sink-list writers
	sinks   atomic.Pointer[[]SpanSink] // copy-on-write: export reads lock- and alloc-free
	nextID  atomic.Uint64
	ambient atomic.Uint64 // fallback parent for context-free layers (orasoa)
}

// NewTracer returns a tracer exporting to the given sinks.
func NewTracer(sinks ...SpanSink) *Tracer {
	t := &Tracer{}
	for _, s := range sinks {
		t.AddSink(s)
	}
	return t
}

// AddSink registers an additional sink.
func (t *Tracer) AddSink(s SpanSink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	var next []SpanSink
	if cur := t.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	t.sinks.Store(&next)
	t.mu.Unlock()
}

// Start opens a span under parent (0 = root). Nil-safe.
func (t *Tracer) Start(parent uint64, kind SpanKind, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		ID:     t.nextID.Add(1),
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Start:  time.Now(),
		tracer: t,
	}
	return s
}

// StartAt opens a span with an explicit start time — for layers that
// measure first and report after (the sqldb stats sink). Nil-safe.
func (t *Tracer) StartAt(parent uint64, kind SpanKind, name string, start time.Time) *Span {
	s := t.Start(parent, kind, name)
	if s != nil && !start.IsZero() {
		s.Start = start
	}
	return s
}

// SetAmbient records a fallback parent span id for layers that have no
// context threading (the Oracle extension functions are invoked from
// inside XPath evaluation, far from any engine Ctx). The engine sets the
// ambient id to the current activity span while executing it; Start sites
// without an explicit parent use Ambient(). Exact for the sequential
// figure runs; concurrent Flow branches may interleave, which is
// acceptable for a fallback.
func (t *Tracer) SetAmbient(id uint64) {
	if t == nil {
		return
	}
	t.ambient.Store(id)
}

// Ambient returns the current fallback parent id.
func (t *Tracer) Ambient() uint64 {
	if t == nil {
		return 0
	}
	return t.ambient.Load()
}

func (t *Tracer) export(s *Span) {
	sinks := t.sinks.Load()
	if sinks == nil {
		return
	}
	for _, sink := range *sinks {
		sink.ExportSpan(s)
	}
}

// Observability bundles a tracer and a metrics registry; it is the single
// handle threaded through the engine, the product layers, sqldb, wsbus,
// journal and resilience. A nil *Observability is safe everywhere.
type Observability struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New returns a bundle with a fresh tracer (no sinks yet) and registry.
func New() *Observability {
	return &Observability{Tracer: NewTracer(), Metrics: NewRegistry()}
}

// T returns the tracer (nil-safe).
func (o *Observability) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// M returns the metrics registry (nil-safe).
func (o *Observability) M() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}
