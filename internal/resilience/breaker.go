package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state.
type BreakerState int

// Breaker states. Closed passes calls through; Open fails them fast;
// HalfOpen admits probe calls whose outcomes decide between the two.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ErrOpen is returned (wrapped) when a call is refused because the circuit
// is open. It is transient: a retry policy backing off past the cooldown
// will find the breaker half-open.
var ErrOpen = errors.New("resilience: circuit open")

// Transition records one breaker state change.
type Transition struct {
	From, To BreakerState
	At       time.Time
}

// Breaker is a closed/open/half-open circuit breaker. It is safe for
// concurrent use and is typically shared by every activity targeting the
// same downstream service or data source, across process instances.
type Breaker struct {
	// FailureThreshold is the number of consecutive failures (while
	// closed) that opens the circuit. Values <= 0 mean 5.
	FailureThreshold int
	// Cooldown is how long the circuit stays open before admitting
	// half-open probes. Values <= 0 mean 100ms.
	Cooldown time.Duration
	// SuccessThreshold is the number of consecutive half-open successes
	// that close the circuit again. Values <= 0 mean 1.
	SuccessThreshold int
	// HalfOpenProbes bounds the number of in-flight probe calls admitted
	// while half-open. Values <= 0 mean 1 (the classical single-probe
	// breaker). Without the bound, every goroutine blocked on an open
	// circuit storms the recovering service the instant the cooldown
	// elapses.
	HalfOpenProbes int

	// Clock is a test hook; nil means time.Now.
	Clock func() time.Time

	mu          sync.Mutex
	state       BreakerState
	failures    int // consecutive failures while closed
	successes   int // consecutive successes while half-open
	probes      int // in-flight half-open probes (admitted, not yet settled)
	openedAt    time.Time
	transitions []Transition
}

// NewBreaker builds a breaker opening after threshold consecutive
// failures and probing again after the cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{FailureThreshold: threshold, Cooldown: cooldown}
}

func (b *Breaker) now() time.Time {
	if b.Clock != nil {
		return b.Clock()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.FailureThreshold <= 0 {
		return 5
	}
	return b.FailureThreshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 100 * time.Millisecond
	}
	return b.Cooldown
}

func (b *Breaker) successThreshold() int {
	if b.SuccessThreshold <= 0 {
		return 1
	}
	return b.SuccessThreshold
}

func (b *Breaker) halfOpenProbes() int {
	if b.HalfOpenProbes <= 0 {
		return 1
	}
	return b.HalfOpenProbes
}

// transitionLocked changes state and records/announces the transition.
func (b *Breaker) transitionLocked(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	b.transitions = append(b.transitions, Transition{From: from, To: to, At: b.now()})
}

// Allow reports whether a call may proceed. While open it fails fast until
// the cooldown elapses, then flips to half-open and admits a bounded
// number of in-flight probes (HalfOpenProbes, default 1); further callers
// are refused until a probe settles via OnSuccess/OnFailure. Every
// admitted call MUST settle, or the probe slots leak.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probes < b.halfOpenProbes() {
			b.probes++
			return true
		}
		return false
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown() {
			b.successes = 0
			b.probes = 1 // this caller is the first probe
			b.transitionLocked(HalfOpen)
			return true
		}
		return false
	}
	return true
}

// settleProbeLocked releases one half-open probe slot (floored at zero so
// late settles from calls admitted before the last open/half-open flip
// cannot underflow).
func (b *Breaker) settleProbeLocked() {
	if b.probes > 0 {
		b.probes--
	}
}

// OnSuccess records a successful call.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.settleProbeLocked()
		b.successes++
		if b.successes >= b.successThreshold() {
			b.failures = 0
			b.probes = 0
			b.transitionLocked(Closed)
		}
	}
}

// OnFailure records a failed call. While closed, the consecutive-failure
// counter may trip the circuit; while half-open, any failure reopens it.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.threshold() {
			b.openedAt = b.now()
			b.transitionLocked(Open)
		}
	case HalfOpen:
		b.settleProbeLocked()
		b.openedAt = b.now()
		b.probes = 0
		b.transitionLocked(Open)
	}
}

// State returns the current state (resolving an elapsed cooldown is left
// to Allow; State is a pure read).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions returns a copy of the recorded state changes (the breaker's
// audit trail).
func (b *Breaker) Transitions() []Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Transition(nil), b.transitions...)
}

// RefusedError wraps ErrOpen with the refused service name.
func RefusedError(target string) error {
	return fmt.Errorf("%s: %w", target, ErrOpen)
}
