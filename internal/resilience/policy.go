// Package resilience provides the reliability contract the surveyed
// workflow products sell: retry policies with exponential backoff and
// deterministic jitter, per-attempt and overall deadlines, a circuit
// breaker with closed/open/half-open states, and a dead-letter log for
// invocations whose retries are exhausted.
//
// The package is deliberately substrate-agnostic: it knows nothing about
// the service bus, the SQL engine, or the workflow engine. The product
// layers (engine.Invoke, bis.SQLActivity, mswf, orasoa) wire policies into
// their activities and note every attempt, backoff, breaker transition,
// and dead letter on the activity's span (Notes), so the paper's
// transaction-mode discussion (short-running vs long-running processes,
// atomic SQL sequences, fault handlers) becomes an executable and testable
// reliability matrix.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"wfsql/internal/obsv"
)

// Policy describes how an operation is retried. The zero value means
// "exactly one attempt, no backoff, no deadlines".
type Policy struct {
	// MaxAttempts is the total number of attempts including the first.
	// Values <= 0 mean one attempt.
	MaxAttempts int

	// InitialBackoff is the delay before the second attempt. Each further
	// retry multiplies the delay by Multiplier (default 2), capped at
	// MaxBackoff (if > 0).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	Multiplier     float64

	// Jitter is the fraction [0,1] of each backoff that is randomized:
	// the effective delay is d*(1-Jitter) + u*d*Jitter with u uniform in
	// [0,1).
	//
	// With Seed != 0 the jitter stream is deterministic per Do call
	// (reproducible tests). With Seed == 0 — the common production
	// configuration — jitter draws from a process-wide mutex-guarded
	// source, so concurrent unseeded policies get independent streams.
	// (Historically Seed == 0 seeded every Do call with the same
	// constant, which made all unseeded instances back off in lockstep:
	// a thundering herd exactly when jitter was supposed to prevent
	// one.)
	Jitter float64
	Seed   int64

	// PerAttemptTimeout bounds each attempt. A timed-out attempt counts as
	// a transient failure; the abandoned operation's late result is
	// discarded. Zero disables the per-attempt deadline.
	PerAttemptTimeout time.Duration

	// OverallDeadline bounds the whole retry loop (attempts plus backoff).
	// When the next backoff would exceed the budget the loop gives up with
	// reason "deadline". Zero disables the overall deadline.
	OverallDeadline time.Duration

	// Classify reports whether an error is retryable. Nil installs
	// DefaultClassify: retry unless the error (chain) declares itself
	// non-temporary via a `Temporary() bool` method (see wsbus.Permanent).
	Classify func(error) bool

	// Sleep and Now are test hooks; nil means time.Sleep / time.Now.
	Sleep func(time.Duration)
	Now   func() time.Time
}

// NewPolicy builds a retry policy with the common defaults: doubling
// backoff, no jitter, no deadlines, default transient/permanent
// classification.
func NewPolicy(maxAttempts int, initialBackoff time.Duration) *Policy {
	return &Policy{MaxAttempts: maxAttempts, InitialBackoff: initialBackoff, Multiplier: 2}
}

// Attempts returns the effective number of attempts.
func (p *Policy) Attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// lockedSource is a rand.Source safe for concurrent use. The derived
// *rand.Rand only calls Int63 (Float64 is Int63-based), so guarding the
// source suffices.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// sharedJitter is the process-wide jitter source used by every policy
// with Seed == 0. Sharing one mutex-guarded source (rather than seeding
// per call) guarantees concurrent retry loops draw from disjoint points
// of a single stream and therefore never back off in lockstep.
var sharedJitter = rand.New(&lockedSource{src: rand.NewSource(time.Now().UnixNano())})

// jitterRand returns the RNG Do should use for this policy: nil when
// jitter is disabled, a fresh deterministic stream when Seed != 0, and
// the shared locked source otherwise.
func (p *Policy) jitterRand() *rand.Rand {
	if p.Jitter <= 0 {
		return nil
	}
	if p.Seed != 0 {
		return rand.New(rand.NewSource(p.Seed))
	}
	return sharedJitter
}

// BackoffFor returns the backoff before attempt n+1 (n is the 1-based
// attempt that just failed), using rng for jitter.
func (p *Policy) BackoffFor(n int, rng *rand.Rand) time.Duration {
	d := float64(p.InitialBackoff)
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if p.Jitter > 0 && rng != nil {
		d = d*(1-p.Jitter) + rng.Float64()*d*p.Jitter
	}
	return time.Duration(d)
}

func (p *Policy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (p *Policy) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

func (p *Policy) classify(err error) bool {
	if p.Classify != nil {
		return p.Classify(err)
	}
	return DefaultClassify(err)
}

// DefaultClassify retries every error unless the error chain declares
// itself permanent via a `Temporary() bool` method returning false (the
// wsbus.Transient / wsbus.Permanent markers).
func DefaultClassify(err error) bool {
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}

// Observer receives the retry loop's lifecycle events. All callbacks are
// optional and are invoked from the caller's goroutine (never from the
// abandoned goroutine of a timed-out attempt), so observers may safely
// touch instance state and spans.
type Observer struct {
	OnAttempt func(attempt, max int)
	OnSuccess func(attempt int)
	OnFailure func(attempt int, err error)
	OnBackoff func(attempt int, d time.Duration)
	OnGiveUp  func(attempt int, err error, reason string)
}

// Notes returns an observer that records a retry loop's progress on sp,
// the span of the activity it runs in, in the vocabulary both workflow
// engines share: attempt=<n>/<max> (multi-attempt policies only) and
// backoff=<d>, the last of each winning. Both callbacks are set, so a
// caller with its own observer can chain them; a nil sp records nothing.
func Notes(sp *obsv.Span) Observer {
	return Observer{
		OnAttempt: func(n, max int) {
			if max > 1 && sp != nil {
				sp.Set("attempt", strconv.Itoa(n)+"/"+strconv.Itoa(max))
			}
		},
		OnBackoff: func(_ int, d time.Duration) {
			if sp != nil {
				sp.Set("backoff", d.String())
			}
		},
	}
}

func (o Observer) attempt(n, max int) {
	if o.OnAttempt != nil {
		o.OnAttempt(n, max)
	}
}

func (o Observer) success(n int) {
	if o.OnSuccess != nil {
		o.OnSuccess(n)
	}
}

func (o Observer) failure(n int, err error) {
	if o.OnFailure != nil {
		o.OnFailure(n, err)
	}
}

func (o Observer) backoff(n int, d time.Duration) {
	if o.OnBackoff != nil {
		o.OnBackoff(n, d)
	}
}

func (o Observer) giveUp(n int, err error, reason string) {
	if o.OnGiveUp != nil {
		o.OnGiveUp(n, err, reason)
	}
}

// Give-up reasons reported by Do.
const (
	ReasonExhausted = "exhausted" // MaxAttempts failed
	ReasonPermanent = "permanent" // error classified non-retryable
	ReasonDeadline  = "deadline"  // overall deadline would be exceeded
	ReasonShed      = "SHED"      // admission control refused the instance before it ran
)

// AbandonedError is returned when a retry loop gives up: the retries were
// exhausted, the error was classified permanent, or the overall deadline
// ran out. It wraps the last attempt's error.
type AbandonedError struct {
	Reason   string
	Attempts int
	Err      error
}

// Error implements error.
func (e *AbandonedError) Error() string {
	return fmt.Sprintf("resilience: gave up after %d attempt(s) (%s): %v", e.Attempts, e.Reason, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *AbandonedError) Unwrap() error { return e.Err }

// TimeoutError is the failure recorded for an attempt that exceeded the
// per-attempt deadline. It is transient by definition.
type TimeoutError struct{ After time.Duration }

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("resilience: attempt timed out after %s", e.After)
}

// Temporary marks timeouts retryable.
func (e *TimeoutError) Temporary() bool { return true }

// Do runs op under the policy and returns its first successful result.
// Attempts are numbered from 1. A nil policy means a single bare attempt.
//
// When PerAttemptTimeout is set, op runs in a helper goroutine; on timeout
// the attempt is abandoned and the late result is discarded, so op must
// tolerate running to completion after the loop has moved on (the in-
// process analog of a network call whose response arrives after the client
// gave up).
func Do[T any](p *Policy, obs Observer, op func(attempt int) (T, error)) (T, error) {
	if p == nil {
		p = &Policy{}
	}
	return retry(p, obs, func(n int) (T, error) { return runAttempt(p, n, op) })
}

// DoErr is the result-less convenience form of Do.
func (p *Policy) DoErr(obs Observer, op func(attempt int) error) error {
	_, err := Do(p, obs, func(n int) (struct{}, error) {
		return struct{}{}, op(n)
	})
	return err
}

// DoInline is DoErr with every attempt on the calling goroutine:
// PerAttemptTimeout does not apply, and op stays on its caller's stack.
// It is for work that an abandoned attempt would go on holding, like a
// statement on a session: the session runs one statement at a time, so
// the retry would wait for the abandoned attempt anyway, which could
// still commit behind it.
func (p *Policy) DoInline(obs Observer, op func(attempt int) error) error {
	_, err := retry(p, obs, func(n int) (struct{}, error) {
		return struct{}{}, op(n)
	})
	return err
}

// retry is the loop of Do and DoInline around one attempt, run.
func retry[T any](p *Policy, obs Observer, run func(attempt int) (T, error)) (T, error) {
	var zero T
	start := p.now()
	max := p.Attempts()
	rng := p.jitterRand()
	var lastErr error
	for n := 1; n <= max; n++ {
		obs.attempt(n, max)
		v, err := run(n)
		if err == nil {
			obs.success(n)
			return v, nil
		}
		lastErr = err
		obs.failure(n, err)
		if !p.classify(err) {
			obs.giveUp(n, err, ReasonPermanent)
			return zero, &AbandonedError{Reason: ReasonPermanent, Attempts: n, Err: err}
		}
		if n == max {
			break
		}
		d := p.BackoffFor(n, rng)
		if p.OverallDeadline > 0 && p.now().Sub(start)+d > p.OverallDeadline {
			obs.giveUp(n, err, ReasonDeadline)
			return zero, &AbandonedError{Reason: ReasonDeadline, Attempts: n, Err: err}
		}
		if d > 0 {
			obs.backoff(n, d)
			p.sleep(d)
		}
	}
	obs.giveUp(max, lastErr, ReasonExhausted)
	return zero, &AbandonedError{Reason: ReasonExhausted, Attempts: max, Err: lastErr}
}

// runAttempt executes one attempt, honoring the per-attempt timeout.
// (A free function because Go methods cannot be generic.)
func runAttempt[T any](p *Policy, n int, op func(int) (T, error)) (T, error) {
	if p.PerAttemptTimeout <= 0 {
		return op(n)
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late result must not leak the goroutine
	go func() {
		v, err := op(n)
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(p.PerAttemptTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-timer.C:
		var zero T
		return zero, &TimeoutError{After: p.PerAttemptTimeout}
	}
}

// Abandoned extracts the AbandonedError from an error chain (nil if the
// error did not come from a give-up).
func Abandoned(err error) *AbandonedError {
	if err == nil {
		return nil // before &a escapes into errors.As: no allocation on success
	}
	var a *AbandonedError
	if errors.As(err, &a) {
		return a
	}
	return nil
}
