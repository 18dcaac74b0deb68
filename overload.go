package wfsql

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wfsql/internal/admit"
	"wfsql/internal/journal"
	"wfsql/internal/resilience"
	"wfsql/internal/sched"
)

// This file is the overload-protection facade: it runs N instances of
// the paper's running example through a bounded admission queue
// (internal/admit) onto a streaming worker pool (sched.Pool), with
// per-instance deadline budgets propagated down to activity and SQL
// statement boundaries, an optional AIMD concurrency limiter, and a
// brown-out controller that degrades gracefully under sustained
// pressure: deferrable instances are shed first, the journal sync
// policy relaxes always→critical, and every shed instance lands in the
// dead-letter log with a SHED reason for later requeue.

// OverloadConfig parameterizes an overload-protected multi-instance run.
type OverloadConfig struct {
	// Instances is the number of workflow instances to submit (min 1).
	Instances int
	// Workers bounds the number of instances in flight at once (min 1).
	Workers int
	// QueueBound caps the admission queue (default 2*Workers).
	QueueBound int
	// Policy is the full-queue admission policy (Block, Shed,
	// TimeoutWait).
	Policy admit.Policy
	// Wait bounds TimeoutWait's patience.
	Wait time.Duration
	// Budget, when > 0, is each instance's execution deadline measured
	// from submission. Instances whose budget expires in the queue are
	// shed without starting; instances already running are cancelled at
	// the next activity / SQL statement boundary.
	Budget time.Duration
	// AIMDTarget, when > 0, enables the adaptive concurrency limiter
	// with this p99 latency objective (bounds [1, Workers]).
	AIMDTarget time.Duration
	// AIMDWindow is the limiter's adaptation window (samples per round).
	AIMDWindow int
	// BrownoutHigh, when > 0, enables the brown-out controller at this
	// queue-depth watermark.
	BrownoutHigh int
	// BrownoutWindow is how long depth must stay at the watermark
	// before degrading.
	BrownoutWindow time.Duration
	// DeferrableEvery, when > 0, marks every Nth submitted instance
	// Deferrable (modelling warm-up / data-setup work): under brown-out
	// those are shed first while Normal work keeps flowing.
	DeferrableEvery int
	// Resilience applies the usual reliability policies to every
	// instance.
	Resilience ResilienceConfig
}

func (c OverloadConfig) normalized() OverloadConfig {
	if c.Instances < 1 {
		c.Instances = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueBound < 1 {
		c.QueueBound = 2 * c.Workers
	}
	return c
}

// classFor assigns the priority class of the i-th submitted instance.
func (c OverloadConfig) classFor(i int) admit.Class {
	if c.DeferrableEvery > 0 && i%c.DeferrableEvery == c.DeferrableEvery-1 {
		return admit.Deferrable
	}
	return admit.Normal
}

// newOverloadPool assembles a streaming pool from the config, wiring
// shed instances into the prepared stack's dead-letter log (Reason
// "SHED") and the brown-out controller into the sync policy of the
// journal attached to the stack's own host.
func (env *Environment) newOverloadPool(cfg OverloadConfig, prepared *Prepared) *sched.Pool {
	pc := sched.PoolConfig{
		Workers:    cfg.Workers,
		QueueBound: cfg.QueueBound,
		Policy:     cfg.Policy,
		Wait:       cfg.Wait,
		JobBudget:  cfg.Budget,
		Obs:        env.obs,
	}
	if cfg.AIMDTarget > 0 {
		pc.AIMD = admit.AIMDConfig{
			Min:    1,
			Max:    cfg.Workers,
			Target: cfg.AIMDTarget,
			Window: cfg.AIMDWindow,
		}
	}
	if cfg.BrownoutHigh > 0 {
		pc.Brownout = admit.BrownoutConfig{
			High:   cfg.BrownoutHigh,
			Window: cfg.BrownoutWindow,
		}
	}
	if letters := prepared.DeadLetters; letters != nil {
		pc.OnShed = func(name, stack string, class admit.Class, reason string) {
			letters.Add(resilience.DeadLetter{
				Activity: "Admission",
				Target:   stack,
				Key:      name,
				Reason:   resilience.ReasonShed,
				LastErr:  fmt.Sprintf("admission shed: %s (class %s)", reason, class),
			})
		}
	}
	p := sched.NewPool(pc)

	// Graceful degradation of durability cost: while the brown-out is
	// active, a journal running in SyncAlways relaxes to SyncCritical
	// (commit-critical records still sync; the others ride along with
	// them). The previous policy is restored when pressure subsides.
	if rec := prepared.Journal(); rec != nil && p.Brownout() != nil {
		var mu sync.Mutex
		var saved *journal.SyncPolicy
		p.Brownout().OnChange(func(active bool) {
			mu.Lock()
			defer mu.Unlock()
			if active {
				cur := rec.SyncPolicy()
				if cur.Mode == journal.SyncAlways {
					saved = &cur
					rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncCritical})
				}
			} else if saved != nil {
				rec.SetSyncPolicy(*saved)
				saved = nil
			}
		})
	}
	return p
}

// RunOverload prepares the stack once and pushes cfg.Instances instances
// through the overload-protected pool. The returned report accounts every
// submitted instance exactly once: Completed + Failed + Shed == Submitted.
// The error is the first non-shed instance failure (sheds are an expected
// overload outcome, recorded in the report and the stack's dead-letter
// log, not an error).
func (env *Environment) RunOverload(s Stack, cfg OverloadConfig) (sched.PoolReport, error) {
	cfg = cfg.normalized()
	p, err := s.Prepare(env, cfg.Resilience)
	if err != nil {
		return sched.PoolReport{}, err
	}
	pool := env.newOverloadPool(cfg, p)
	for i := 0; i < cfg.Instances; i++ {
		pool.Submit(context.Background(), sched.CtxJob{
			Stack: s.Name,
			Name:  s.instanceName(i),
			Class: cfg.classFor(i),
			Run:   p.Run,
		})
	}
	rep := pool.Drain()
	return rep, firstRunError(rep)
}

// firstRunError returns the first non-shed instance error in the report
// (sheds are expected overload outcomes, not failures).
func firstRunError(rep sched.PoolReport) error {
	for _, r := range rep.Results {
		if !r.Shed && r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return nil
}
