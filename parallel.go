package wfsql

import (
	"context"

	"wfsql/internal/sched"
)

// This file is the multi-instance execution facade: it runs N instances
// of the paper's running example concurrently on a bounded worker pool
// (internal/sched), the way the surveyed workflow servers drive many
// process instances against one shared database. Each instance gets its
// own per-instance state and sqldb sessions; the shared database
// serializes writers and lets read-only statements run concurrently.
//
// Every instance appends one confirmation per approved item type, so
// after a parallel run ConfirmationCount() must equal
// Instances × ApprovedItemTypes() — the invariant the parallel tests
// assert.

// ParallelConfig parameterizes a multi-instance figure run.
type ParallelConfig struct {
	// Instances is the number of workflow instances to run (min 1).
	Instances int
	// Workers bounds the number of instances in flight at once (min 1;
	// 1 reproduces serial execution on the scheduler's code path).
	Workers int
	// Resilience applies the usual reliability policies to every
	// instance (zero value = the plain figures).
	Resilience ResilienceConfig
}

func (c ParallelConfig) normalized() ParallelConfig {
	if c.Instances < 1 {
		c.Instances = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// newScheduler builds a scheduler wired to the environment's
// observability bundle (if enabled).
func (env *Environment) newScheduler(workers int) *sched.Scheduler {
	s := sched.New(workers)
	s.SetObservability(env.obs)
	return s
}

// RunParallel prepares the stack once and runs cfg.Instances instances
// of it on cfg.Workers workers. The returned report carries per-instance
// queue-wait/run-time and aggregate throughput; the error is the first
// instance failure (nil when all instances completed).
func (env *Environment) RunParallel(s Stack, cfg ParallelConfig) (sched.Report, error) {
	cfg = cfg.normalized()
	p, err := s.Prepare(env, cfg.Resilience)
	if err != nil {
		return sched.Report{}, err
	}
	jobs := make([]sched.Job, cfg.Instances)
	for i := range jobs {
		jobs[i] = sched.Job{
			Stack: s.Name,
			Name:  s.instanceName(i),
			Run:   func() error { return p.Run(context.Background()) },
		}
	}
	rep := env.newScheduler(cfg.Workers).Run(jobs)
	return rep, rep.FirstError()
}
