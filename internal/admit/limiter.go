package admit

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"wfsql/internal/obsv"
)

// AIMDConfig configures the adaptive concurrency limiter.
//
// The limiter starts at Max (optimistic) and adjusts the in-flight
// bound from observed job latency: every Window completed jobs it
// compares the window's p99 latency against Target. Above target →
// multiplicative decrease (limit *= Backoff, floored at Min). At or
// below target → additive increase (limit += 1, capped at Max). This
// is the classic AIMD discipline — probe for capacity slowly, retreat
// from congestion quickly — applied to worker parallelism instead of a
// TCP congestion window.
type AIMDConfig struct {
	// Min is the lower bound on concurrency. Defaults to 1.
	Min int
	// Max is the upper bound (and the starting limit). Required > 0.
	Max int
	// Target is the latency objective the p99 is compared against.
	// Required > 0 for adaptation; when zero the limiter is a plain
	// fixed semaphore at Max.
	Target time.Duration
	// Window is how many samples form one adaptation round.
	// Defaults to 16.
	Window int
	// Backoff is the multiplicative-decrease factor in (0,1).
	// Defaults to 0.7.
	Backoff float64
	// Obs, when non-nil, receives the admit.limit gauge and
	// admit.limit.{increase,decrease} counters.
	Obs *obsv.Observability
}

// Limiter is an AIMD adaptive concurrency limiter. Workers call
// Acquire before running a job and Release (with the job's latency)
// after. A nil *Limiter is inert: Acquire always succeeds immediately.
type Limiter struct {
	cfg AIMDConfig

	mu       sync.Mutex
	cond     *sync.Cond
	limit    float64 // current bound; int(limit) is the effective cap
	inflight int
	window   []float64 // latencies (ms) in the current round
}

// NewLimiter constructs a limiter. Returns nil when cfg.Max <= 0 so
// callers can thread "no limiter" through configuration naturally.
func NewLimiter(cfg AIMDConfig) *Limiter {
	if cfg.Max <= 0 {
		return nil
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.Backoff <= 0 || cfg.Backoff >= 1 {
		cfg.Backoff = 0.7
	}
	l := &Limiter{cfg: cfg, limit: float64(cfg.Max)}
	l.cond = sync.NewCond(&l.mu)
	l.cfg.Obs.M().Gauge("admit.limit").SetInt(int64(l.limit))
	return l
}

// Limit returns the current concurrency bound.
func (l *Limiter) Limit() int {
	if l == nil {
		return math.MaxInt32
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.effectiveLocked()
}

func (l *Limiter) effectiveLocked() int {
	eff := int(l.limit)
	if eff < l.cfg.Min {
		eff = l.cfg.Min
	}
	return eff
}

// Acquire blocks until a concurrency slot is free or ctx is done. It
// returns ctx.Err() on cancellation, nil on success. Each successful
// Acquire must be paired with exactly one Release.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	// Wake the cond wait when ctx dies so we don't block forever.
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()

	l.mu.Lock()
	defer l.mu.Unlock()
	for l.inflight >= l.effectiveLocked() {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	l.inflight++
	return nil
}

// Release returns a slot and feeds the job's observed latency into the
// adaptation window. Call with the wall time the job spent running
// (not queue wait — the limiter tunes worker parallelism against
// service latency, not arrival pressure).
func (l *Limiter) Release(latency time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.inflight > 0 {
		l.inflight--
	}
	if l.cfg.Target > 0 {
		l.window = append(l.window, float64(latency)/float64(time.Millisecond))
		if len(l.window) >= l.cfg.Window {
			l.adaptLocked()
			l.window = l.window[:0]
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// adaptLocked runs one AIMD round over the completed window.
func (l *Limiter) adaptLocked() {
	sorted := make([]float64, len(l.window))
	copy(sorted, l.window)
	sort.Float64s(sorted)
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	p99 := sorted[idx]
	targetMs := float64(l.cfg.Target) / float64(time.Millisecond)

	before := l.effectiveLocked()
	if p99 > targetMs {
		// Multiplicative decrease: retreat from congestion quickly.
		l.limit *= l.cfg.Backoff
		if l.limit < float64(l.cfg.Min) {
			l.limit = float64(l.cfg.Min)
		}
		if l.effectiveLocked() != before {
			l.cfg.Obs.M().Counter("admit.limit.decrease").Inc()
		}
	} else {
		// Additive increase: probe for capacity slowly.
		l.limit += 1
		if l.limit > float64(l.cfg.Max) {
			l.limit = float64(l.cfg.Max)
		}
		if l.effectiveLocked() != before {
			l.cfg.Obs.M().Counter("admit.limit.increase").Inc()
		}
	}
	l.cfg.Obs.M().Gauge("admit.limit").SetInt(int64(l.effectiveLocked()))
	if l.effectiveLocked() > before {
		// More room: wake waiters beyond the single slot Release frees.
		l.cond.Broadcast()
	}
}
