package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfsql/internal/admit"
	"wfsql/internal/obsv"
)

// CtxJob is one schedulable instance run under an execution budget. It is
// the streaming-pool counterpart of Job: Run receives the job's budget
// context (already carrying the per-job deadline, when one is configured)
// and is expected to thread it into the instance run (engine.RunCtx,
// mswf RunCtx) so the deadline is enforced at activity and statement
// boundaries.
type CtxJob struct {
	// Stack labels the product stack ("BIS", "WF", "Oracle") for metrics.
	Stack string
	// Name identifies the job in results.
	Name string
	// Class is the job's priority class; under brown-out, Deferrable
	// jobs are shed at admission.
	Class admit.Class
	// Run executes the instance under the pool-assigned budget.
	Run func(ctx context.Context) error
}

// PoolResult describes one job's final disposition: exactly one of
// completed (Err == nil), failed (Err != nil, Shed false), or shed
// (Shed true — the job never ran).
type PoolResult struct {
	Name       string
	Stack      string
	Class      admit.Class
	QueueWait  time.Duration // admission -> dequeue (zero for sheds at submit)
	RunTime    time.Duration // Run() wall clock (zero for sheds)
	Err        error
	Shed       bool
	ShedReason string

	seq int64 // submission order, for Scheduler.Run
}

// PoolReport aggregates one pool run. Conservation holds by
// construction: Completed + Failed + Shed == Submitted, and no job is
// counted twice.
type PoolReport struct {
	Workers        int
	Submitted      int64
	Admitted       int64
	Shed           int64
	Completed      int64 // ran to completion without error
	Failed         int64 // ran and returned an error
	Elapsed        time.Duration
	Goodput        float64 // completed instances per second
	QueueHighWater int
	FinalLimit     int // adaptive concurrency bound at drain (0 = unlimited)
	Results        []PoolResult
}

// QueueWaitP99 returns the p99 queue wait over jobs that actually ran.
func (r PoolReport) QueueWaitP99() time.Duration {
	var waits []time.Duration
	for _, res := range r.Results {
		if !res.Shed {
			waits = append(waits, res.QueueWait)
		}
	}
	if len(waits) == 0 {
		return 0
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	idx := int(float64(len(waits))*0.99+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(waits) {
		idx = len(waits) - 1
	}
	return waits[idx]
}

// PoolConfig configures a streaming pool.
type PoolConfig struct {
	// Workers is the worker-goroutine count (values < 1 mean 1).
	Workers int
	// QueueBound caps the admission queue depth (values < 1 mean
	// 2*Workers).
	QueueBound int
	// Policy is the full-queue admission policy (default Block).
	Policy admit.Policy
	// Wait bounds TimeoutWait's patience.
	Wait time.Duration
	// JobBudget, when > 0, assigns every submitted job a deadline of
	// now+JobBudget. The deadline is enforced at admission, at dequeue
	// (expired-in-queue jobs are shed without running), and inside the
	// job via the ctx passed to Run.
	JobBudget time.Duration
	// AIMD, when Max > 0, installs an adaptive concurrency limiter
	// between dequeue and execution.
	AIMD admit.AIMDConfig
	// Brownout, when High > 0, installs the watermark degradation
	// controller, fed by queue depth.
	Brownout admit.BrownoutConfig
	// OnShed is called for every shed job (any reason, any stage).
	OnShed func(name, stack string, class admit.Class, reason string)
	// Obs receives sched.* and admit.* metrics (nil-safe).
	Obs *obsv.Observability
}

// poolItem is what rides the admission queue.
type poolItem struct {
	job CtxJob
	seq int64
}

// Pool is a streaming instance scheduler: jobs are submitted one at a
// time (from open-loop generators, request handlers, ...) and flow
// through a bounded admission queue to a fixed worker pool, optionally
// gated by an AIMD concurrency limiter and degraded by a brown-out
// controller. Scheduler.Run is the batch helper over it.
type Pool struct {
	cfg      PoolConfig
	queue    *admit.Queue[poolItem]
	limiter  *admit.Limiter
	brownout *admit.Brownout

	wg      sync.WaitGroup
	start   time.Time
	submits atomic.Int64

	mu        sync.Mutex
	results   []PoolResult
	completed int64
	failed    int64
	shed      int64
}

// NewPool builds and starts a pool; workers are live on return. Submit
// jobs, then Drain to stop and collect the report.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueBound < 1 {
		cfg.QueueBound = 2 * cfg.Workers
	}
	cfg.AIMD.Obs = cfg.Obs
	cfg.Brownout.Obs = cfg.Obs

	p := &Pool{cfg: cfg, start: time.Now()}
	p.limiter = admit.NewLimiter(cfg.AIMD)
	p.brownout = admit.NewBrownout(cfg.Brownout)
	p.queue = admit.NewQueue[poolItem](admit.Options{
		Capacity: cfg.QueueBound,
		Policy:   cfg.Policy,
		Wait:     cfg.Wait,
		Brownout: p.brownout,
		Obs:      cfg.Obs,
		OnShed: func(item any, class admit.Class, reason string) {
			it := item.(poolItem)
			p.recordShed(it, reason)
		},
	})

	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Brownout returns the pool's degradation controller (nil when not
// configured) so callers can attach OnChange hooks — e.g. relaxing the
// journal sync policy while the brown-out is active.
func (p *Pool) Brownout() *admit.Brownout { return p.brownout }

// Submit offers a job under the configured admission policy. A
// *admit.ShedError return means the job was refused and will never run
// (it is already accounted in the report). A nil return means the job
// was admitted — it will either run or be shed at dequeue if its budget
// expires in the queue; both outcomes land in the report.
func (p *Pool) Submit(ctx context.Context, job CtxJob) error {
	t := admit.Ticket[poolItem]{Item: poolItem{job: job, seq: p.submits.Add(1) - 1}, Class: job.Class}
	if p.cfg.JobBudget > 0 {
		t.Deadline = time.Now().Add(p.cfg.JobBudget)
	}
	return p.queue.Submit(ctx, t)
}

// Drain closes admission, waits for queued work to finish, and returns
// the final report.
func (p *Pool) Drain() PoolReport {
	p.queue.Close()
	p.wg.Wait()

	submitted, admitted, _ := p.queue.Counts()
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := PoolReport{
		Workers:        p.cfg.Workers,
		Submitted:      submitted,
		Admitted:       admitted,
		Shed:           p.shed,
		Completed:      p.completed,
		Failed:         p.failed,
		Elapsed:        time.Since(p.start),
		QueueHighWater: p.queue.HighWater(),
		Results:        append([]PoolResult(nil), p.results...),
	}
	if p.limiter != nil {
		rep.FinalLimit = p.limiter.Limit()
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Goodput = float64(rep.Completed) / secs
	}
	return rep
}

func (p *Pool) worker() {
	defer p.wg.Done()
	obs := p.cfg.Obs
	for {
		tk, ok := p.queue.Take()
		if !ok {
			return
		}
		job := tk.Item.job
		queueWait := tk.QueueWait(time.Now())

		// The job's budget context: both the limiter wait and the run
		// itself are bounded by it.
		ctx := context.Background()
		var cancel context.CancelFunc
		if !tk.Deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, tk.Deadline)
		}

		if err := p.limiter.Acquire(ctx); err != nil {
			// Budget burned waiting for a concurrency slot: the job is
			// shed without running, same disposition as expiring in the
			// admission queue.
			obs.M().Counter("admit.shed").Inc()
			obs.M().Counter("admit.shed." + admit.ReasonExpiredInQueue).Inc()
			p.recordShed(tk.Item, admit.ReasonExpiredInQueue)
			if cancel != nil {
				cancel()
			}
			continue
		}

		started := time.Now()
		err := runCtxJob(ctx, job)
		runTime := time.Since(started)
		p.limiter.Release(runTime)
		if cancel != nil {
			cancel()
		}

		m := obs.M()
		m.Counter("sched.jobs").Inc()
		if job.Stack != "" {
			m.Counter("sched.jobs." + job.Stack).Inc()
		}
		if err != nil {
			m.Counter("sched.failed").Inc()
		} else {
			m.Counter("sched.ok").Inc()
		}
		m.Histogram("sched.queue_wait_ms").ObserveDuration(queueWait)
		m.Histogram("sched.run_ms").ObserveDuration(runTime)

		p.mu.Lock()
		if err != nil {
			p.failed++
		} else {
			p.completed++
		}
		p.results = append(p.results, PoolResult{
			Name:      job.Name,
			Stack:     job.Stack,
			Class:     job.Class,
			QueueWait: queueWait,
			RunTime:   runTime,
			Err:       err,
			seq:       tk.Item.seq,
		})
		p.mu.Unlock()
	}
}

// recordShed accounts one shed job and forwards it to the OnShed hook.
func (p *Pool) recordShed(it poolItem, reason string) {
	job := it.job
	p.mu.Lock()
	p.shed++
	p.results = append(p.results, PoolResult{
		Name:       job.Name,
		Stack:      job.Stack,
		Class:      job.Class,
		Shed:       true,
		ShedReason: reason,
		seq:        it.seq,
	})
	p.mu.Unlock()
	if p.cfg.OnShed != nil {
		p.cfg.OnShed(job.Name, job.Stack, job.Class, reason)
	}
}

// runCtxJob executes one job under its budget, converting a panic into
// an error so a faulting instance cannot take down its worker.
func runCtxJob(ctx context.Context, job CtxJob) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job %s panicked: %v", job.Name, r)
		}
	}()
	return job.Run(ctx)
}
