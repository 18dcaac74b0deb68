// Package host is the bookkeeping both workflow hosts do around their
// activities. BIS and Oracle run on the BPEL engine (internal/engine), WF
// on its own runtime (internal/mswf); the paper's Figures 3, 5 and 7 keep
// their activity models apart, but what happens at an activity's boundary
// is the same on both: the instance and activity spans, the execution
// budget check, the effect-then-memo call into the journal, the instance's
// completion record and the counters that go with them. So is a SQL
// statement inside an activity: it runs on the instance's session on its
// database, under the activity's retry policy (Instance.SQL). Both hosts
// embed Host, and each instance embeds Instance, by value.
package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
	"wfsql/internal/sqldb"
)

// ErrBudgetExceeded wraps the context error when an instance's execution
// budget expired before an activity could start. The instance ends
// faulted (its completion callbacks run, so product-layer transactions
// roll back), never crashed: a deadline is an orderly cancellation, not a
// death.
var ErrBudgetExceeded = errors.New("instance budget exceeded")

// Host is the shell of a workflow host: its dead-letter log, the journal
// recorder and observability bundle attached to it, and the instance id
// counter used when no recorder allocates ids.
type Host struct {
	// DeadLetters collects invocations whose retries were exhausted and
	// that no fault handler absorbed: the host-wide reliability audit
	// trail next to each instance's span tree.
	DeadLetters *resilience.DeadLetterLog

	prefix string // metric name prefix: "engine" or "wf"
	nextID atomic.Int64

	mu   sync.RWMutex
	jrec *journal.Recorder
	obs  *obsv.Observability
	ctr  *counters
}

// counters are the host's metric handles, resolved once per
// SetObservability under the host's prefix. They are all nil (and their
// methods no-ops) while no bundle is attached.
type counters struct {
	instances, completed, faulted, crashed           *obsv.Counter
	activities, deadlineExpired, replays, sqlRetries *obsv.Counter
}

func newCounters(m *obsv.Registry, prefix string) *counters {
	return &counters{
		instances:       m.Counter(prefix + ".instances"),
		completed:       m.Counter(prefix + ".instances.completed"),
		faulted:         m.Counter(prefix + ".instances.faulted"),
		crashed:         m.Counter(prefix + ".instances.crashed"),
		activities:      m.Counter(prefix + ".activities"),
		deadlineExpired: m.Counter(prefix + ".deadline_expired"),
		replays:         m.Counter("journal.replays"),
		sqlRetries:      m.Counter("sql.retries"),
	}
}

// Init prepares a host whose metrics are named "<prefix>.…".
func (h *Host) Init(prefix string) {
	h.prefix = prefix
	h.DeadLetters = resilience.NewDeadLetterLog()
	h.ctr = newCounters(nil, prefix)
}

// SetObservability attaches (or with nil detaches) a tracing/metrics
// bundle. Each instance that begins afterwards emits an instance span and
// one activity span per activity; the bundle also reaches the dead-letter
// log and the journal recorder, so their counters land in one registry.
func (h *Host) SetObservability(o *obsv.Observability) {
	ctr := newCounters(o.M(), h.prefix)
	h.mu.Lock()
	h.obs, h.ctr = o, ctr
	jrec := h.jrec
	h.mu.Unlock()
	if h.DeadLetters != nil {
		h.DeadLetters.SetObservability(o)
	}
	if jrec != nil {
		jrec.SetObservability(o)
	}
}

// Obs returns the attached observability bundle (nil if none; its
// accessors are nil-safe).
func (h *Host) Obs() *obsv.Observability {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.obs
}

// AttachJournal connects a recorder to the host. It restores the
// persisted dead-letter log and installs persistence hooks so future dead
// letters (and requeues) are journaled.
func (h *Host) AttachJournal(rec *journal.Recorder) {
	h.mu.Lock()
	h.jrec = rec
	obs := h.obs
	h.mu.Unlock()
	if rec != nil {
		rec.BindHost(obs, h.DeadLetters)
	}
}

// Journal returns the attached recorder (nil when running in memory).
func (h *Host) Journal() *journal.Recorder {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.jrec
}

// Instance is the host's record of one instance run: its id, the recorder
// it was opened under, the effect-then-memo state, its budget, what
// observability was attached when it began, and its database sessions.
type Instance struct {
	ID int64

	jrec    *journal.Recorder
	effects journal.Effects
	budget  context.Context
	obs     *obsv.Observability
	ctr     *counters
	span    *obsv.Span // the instance span (nil: untraced)
	current atomic.Pointer[obsv.Span]

	// sessions holds one leased session per database the instance has
	// run a statement on, in sessBuf while there is one; End releases
	// them.
	smu      sync.Mutex
	sessions []*sqldb.Session
	sessBuf  [1]*sqldb.Session
}

// Open gives r the recorder attached now and an id: id itself when it is
// not 0 (a recorded instance resuming), else a durable one from the
// recorder, else the host's next in-memory id.
func (h *Host) Open(r *Instance, id int64) {
	r.jrec = h.Journal()
	switch {
	case id != 0:
	case r.jrec != nil:
		id = r.jrec.AllocateID()
	default:
		id = h.nextID.Add(1)
	}
	r.ID = id
}

// Begin starts r's run under budget (nil: none). It takes the
// observability attached now, so an instance is traced if and only if a
// bundle was attached when it began, opens the instance span labelled
// with the product stack, and counts the instance. The span is returned
// for host-specific notes; it is nil when untraced.
func (h *Host) Begin(r *Instance, budget context.Context, name, stack string) *obsv.Span {
	h.mu.RLock()
	r.obs, r.ctr = h.obs, h.ctr
	h.mu.RUnlock()
	r.budget = budget
	r.ctr.instances.Inc()
	t := r.obs.T()
	if r.span = t.Start(0, obsv.KindInstance, name); r.span != nil {
		r.span.Stack = stack
		r.span.Instance = r.ID
		t.SetAmbient(r.span.ID)
	}
	return r.span
}

// Activity is one open activity boundary, returned by Enter and closed by
// Exit.
type Activity struct {
	// Span is the activity's span (nil when untraced): the parent of
	// what runs inside the activity, and where it notes what happened.
	Span   *obsv.Span
	parent *obsv.Span
}

// Enter opens the boundary of activity name under parent. An expired
// budget refuses the activity before it starts: the error wraps
// ErrBudgetExceeded and the context's error, and no span is opened.
// While the activity runs, its span is the tracer's ambient parent and
// the instance's Current span; Exit hands both back to parent.
func (r *Instance) Enter(parent *obsv.Span, name string) (Activity, error) {
	if err := r.Budget().Err(); err != nil {
		r.ctr.deadlineExpired.Inc()
		return Activity{}, fmt.Errorf("%s: %w: %w", name, ErrBudgetExceeded, err)
	}
	r.ctr.activities.Inc()
	t := r.obs.T()
	sp := t.Start(parent.SpanID(), obsv.KindActivity, name)
	if sp == nil {
		return Activity{}, nil
	}
	sp.Stack = r.span.Stack
	sp.Instance = r.ID
	t.SetAmbient(sp.ID)
	r.current.Store(sp)
	return Activity{Span: sp, parent: parent}, nil
}

// Exit closes an activity boundary with the activity's result, which it
// returns: a crash ends the span crashed, a fault ends it fault with the
// error noted, and success keeps an outcome noted earlier (replayed,
// dead-lettered), defaulting to ok.
func (r *Instance) Exit(a Activity, err error) error {
	if a.Span == nil {
		return err
	}
	r.obs.T().SetAmbient(a.parent.SpanID())
	r.current.Store(a.parent)
	switch {
	case err == nil:
		a.Span.End("")
	case journal.IsCrash(err):
		a.Span.End(obsv.OutcomeCrashed)
	default:
		a.Span.Set("fault", err.Error()).End(obsv.OutcomeFault)
	}
	return err
}

// End finishes r's run with its result: it releases the instance's
// sessions (sqldb.Session.Release), closes the instance span,
// counts the instance completed, faulted or crashed, and, unless the
// instance crashed, appends its completion record. A refused completion
// append fails an otherwise successful run: the journal still lists the
// instance in flight, and recovery would run it again.
func (r *Instance) End(err error) error {
	r.obs.T().SetAmbient(0)
	r.smu.Lock()
	for _, s := range r.sessions {
		s.Release()
	}
	clear(r.sessions)
	r.sessions = r.sessions[:0]
	r.smu.Unlock()
	switch {
	case journal.IsCrash(err):
		r.ctr.crashed.Inc()
		r.span.End(obsv.OutcomeCrashed)
		return err
	case err != nil:
		r.ctr.faulted.Inc()
		r.span.Set("fault", err.Error()).End(obsv.OutcomeFault)
	default:
		r.ctr.completed.Inc()
		r.span.End(obsv.OutcomeOK)
	}
	if r.jrec == nil {
		return err
	}
	fault := ""
	if err != nil {
		fault = err.Error()
	}
	if jerr := r.jrec.InstanceComplete(r.ID, fault); jerr != nil && err == nil {
		return jerr
	}
	return err
}

// Effect routes an effectful activity (invoke, SQL) through the
// effect-then-memo protocol (journal.Effects.Run) on the recorder the
// instance was opened under: a resumed instance restores the memoized
// outcome instead of executing the effect, noting "effect" and the
// replayed outcome on span; a live one journals what out saves after it;
// with no journal attached the effect runs bare.
func (r *Instance) Effect(span *obsv.Span, activity, effectKind string, effect func() error, out journal.Outcome) error {
	replayed, err := r.effects.Run(r.jrec, r.ID, activity, effectKind, effect, out)
	if replayed && err == nil {
		span.Set("effect", effectKind).SetOutcome(obsv.OutcomeReplayed)
		r.ctr.replays.Inc()
	}
	return err
}

// SQL runs op, one statement's work, on the instance's session on db. The
// first statement on a database leases the session (sqldb.DB.Lease) and
// binds the instance budget to it, so an expired budget stops the next
// statement; End hands it back, rolling back a transaction still open
// (the database's view of a process that died mid-transaction). Every
// statement of the instance on db runs on that session, parallel branches
// included: the session runs one statement at a time.
//
// With a policy, a failed op re-runs under it on the same session, noting
// attempts and backoff on the current activity span; each re-run counts in
// sql.retries. A statement refused for the budget fails wrapping
// ErrBudgetExceeded.
func (r *Instance) SQL(db *sqldb.DB, p *resilience.Policy, op func(*sqldb.Session) error) error {
	s := r.session(db)
	var err error
	if p == nil {
		err = op(s)
	} else {
		err = p.DoInline(resilience.Notes(r.Current()), func(n int) error {
			if n > 1 {
				r.ctr.sqlRetries.Inc()
			}
			return op(s)
		})
	}
	if errors.Is(err, sqldb.ErrBudgetExhausted) {
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, err)
	}
	return err
}

// session returns the instance's session on db, leasing it on first use.
func (r *Instance) session(db *sqldb.DB) *sqldb.Session {
	r.smu.Lock()
	defer r.smu.Unlock()
	for _, s := range r.sessions {
		if s.DB() == db {
			return s
		}
	}
	s := db.Lease()
	s.BindContext(r.budget)
	if r.sessions == nil {
		r.sessions = r.sessBuf[:0]
	}
	r.sessions = append(r.sessions, s)
	return s
}

// Replay queues a recorded instance's memoized effects for Effect to
// restore, and returns how many there are.
func (r *Instance) Replay(ij *journal.InstanceJournal) int { return r.effects.Load(ij) }

// Journal returns the recorder the instance was opened under (nil: none).
func (r *Instance) Journal() *journal.Recorder { return r.jrec }

// Obs returns the observability bundle attached when the instance began
// (nil: untraced).
func (r *Instance) Obs() *obsv.Observability { return r.obs }

// Budget returns the instance's execution budget; never nil.
func (r *Instance) Budget() context.Context {
	if r.budget == nil {
		return context.Background()
	}
	return r.budget
}

// Current returns the innermost open activity span, else the instance
// span (nil when untraced): the parent for code that has no span of its
// own to hand. Concurrent branches of one instance share it, so under
// them it is a serial approximation, like the tracer's ambient parent.
func (r *Instance) Current() *obsv.Span {
	if sp := r.current.Load(); sp != nil {
		return sp
	}
	return r.span
}
