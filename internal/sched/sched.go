// Package sched is the worker-pool instance scheduler: it executes many
// workflow instances concurrently on a bounded number of workers, the
// way the surveyed multi-tenant servers (WebSphere Process Server, the
// WF runtime host, Oracle BPEL PM) drive many process instances against
// one shared database. Each job is one instance run; the scheduler
// bounds concurrency, measures queue wait and run time per instance,
// and reports aggregate throughput (instances/sec).
package sched

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"wfsql/internal/obsv"
)

// Job is one schedulable instance run.
type Job struct {
	// Stack labels the product stack ("BIS", "WF", "Oracle") for
	// metrics; it may be empty.
	Stack string
	// Name identifies the job in results (e.g. "Figure4_BIS#7").
	Name string
	// Run executes the instance. It is called exactly once, on one of
	// the scheduler's worker goroutines.
	Run func() error
}

// Result describes one completed job.
type Result struct {
	Name      string
	Stack     string
	QueueWait time.Duration // admission -> dequeue
	RunTime   time.Duration // Run() wall clock
	Err       error
}

// Report aggregates one scheduler run.
type Report struct {
	Workers    int
	Jobs       int
	Failed     int
	Elapsed    time.Duration
	Throughput float64 // successfully completed instances per second
	Results    []Result
}

// Scheduler runs batches of jobs on a fixed-size worker pool.
type Scheduler struct {
	workers int
	obs     atomic.Pointer[obsv.Observability]
}

// New builds a scheduler with the given worker count (values < 1 mean 1).
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{workers: workers}
}

// SetObservability attaches (or with nil detaches) a metrics bundle:
// runs then emit sched.jobs / sched.ok / sched.failed counters and
// sched.queue_wait_ms / sched.run_ms latency histograms.
func (s *Scheduler) SetObservability(o *obsv.Observability) { s.obs.Store(o) }

// Run executes all jobs and blocks until every job has finished. It is
// a batch helper over Pool — Block admission, no budget, no limiter:
// submit all, drain, and map the results back to submission order. Job
// errors (and panics) are collected, not short-circuited: an instance
// failing must not keep sibling instances from completing (matching how
// a workflow server isolates instance faults).
func (s *Scheduler) Run(jobs []Job) Report {
	p := NewPool(PoolConfig{Workers: s.workers, Obs: s.obs.Load()})
	for _, job := range jobs {
		run := job.Run
		// Block admission without a deadline never sheds.
		_ = p.Submit(context.Background(), CtxJob{Stack: job.Stack, Name: job.Name,
			Run: func(context.Context) error { return run() }})
	}
	pr := p.Drain()
	rep := Report{
		Workers: s.workers,
		Jobs:    len(jobs),
		Failed:  int(pr.Failed),
		Elapsed: pr.Elapsed,
		Results: make([]Result, len(jobs)),
	}
	for _, r := range pr.Results {
		rep.Results[r.seq] = Result{Name: r.Name, Stack: r.Stack, QueueWait: r.QueueWait, RunTime: r.RunTime, Err: r.Err}
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Jobs-rep.Failed) / secs
	}
	return rep
}

// FirstError returns the first job error in submission order (nil if
// every job succeeded).
func (r Report) FirstError() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.Name, res.Err)
		}
	}
	return nil
}
