package wfsql

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wfsql/internal/admit"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/replica"
	"wfsql/internal/sched"
	"wfsql/internal/shard"
)

// This file is the sharded-fleet facade: N independent lease-fenced
// primaries (PR 6's StartPrimary, one journal directory, lease, and
// sqldb namespace each), each with its own warm standby, fronted by
// internal/shard's consistent-hash router and per-shard admission
// pools. The fleet supervisor probes every shard; a shard whose process
// died or whose lease went stale walks Serving → Suspect → FailingOver,
// its standby is promoted with the full takeover sequence, and the
// router buffers that shard's submissions across the window instead of
// erroring. The PR 5 conservation invariant extends fleet-wide:
// Completed + Failed + Shed == Submitted across every shard plus the
// router's own refusals.

// FleetConfig parameterizes StartFleet.
type FleetConfig struct {
	// Shards is the shard count (values < 1 mean 3).
	Shards int
	// Workers is the per-shard worker count (values < 1 mean 2).
	Workers int
	// QueueBound caps each shard's admission queue (pool default: 2×Workers).
	QueueBound int
	// Policy is each shard's full-queue admission policy.
	Policy admit.Policy
	// Wait bounds TimeoutWait's patience.
	Wait time.Duration
	// TTL is each shard's lease TTL (values <= 0 use replica.DefaultTTL).
	TTL time.Duration
	// Heartbeat, when > 0, starts background lease renewal on every
	// primary and a Follow loop on every standby at this interval, and
	// is passed to takeovers as WarmStandby.HeartbeatEvery.
	// Deterministic tests leave it zero and drive clocks manually.
	Heartbeat time.Duration
	// SuspectAfter is the consecutive probe misses before Suspect
	// (values < 1 mean 1); FailAfter before failover (default
	// SuspectAfter+1).
	SuspectAfter, FailAfter int
	// CheckEvery, when > 0, runs the supervisor sweep on a background
	// goroutine at this cadence. Deterministic tests leave it zero and
	// call Fleet.Super.CheckOnce.
	CheckEvery time.Duration
	// FailoverWait bounds both the router's submission buffering and a
	// worker's wait for its shard to finish failing over (values <= 0
	// mean 5s).
	FailoverWait time.Duration
	// Reroute lets buffered submissions fall through to a ring
	// successor after FailoverWait (see shard.RouterConfig.Reroute).
	Reroute bool
	// VirtualNodes per shard on the placement ring (0 = default).
	VirtualNodes int
	// Workload seeds each shard's environment.
	Workload Workload
	// Dir is the fleet root directory holding one journal directory per
	// shard ("" = a temp directory removed on Close).
	Dir string
	// Stack is the product stack every shard runs (required).
	Stack Stack
	// Obs receives shard.*, sched.*, and admit.* metrics (nil-safe).
	Obs *obsv.Observability
}

// fleetShard is one shard's moving parts. env/run/rec/pri swap under mu
// at takeover; pool, ws, dir, and now are fixed for the fleet's life.
type fleetShard struct {
	idx  int
	dir  string
	pool *sched.Pool
	ws   *WarmStandby
	now  func() time.Time

	mu         sync.Mutex
	env        *Environment
	run        func(ctx context.Context) error
	rec        *journal.Recorder
	pri        *Primary // original primary; kept after death for zombie probing
	stopFollow func()
	holder     string
	epoch      int64
	dead       bool
	takeovers  int
}

// Fleet is a running sharded fleet. Ring, Health, Router, and Super are
// exported for tests and benchmarks that drive placement or the health
// sweep directly.
type Fleet struct {
	Ring   *shard.Ring
	Health *shard.Health
	Router *shard.Router
	Super  *shard.Supervisor

	cfg       FleetConfig
	obs       *obsv.Observability
	shards    []*fleetShard
	dir       string
	ownDir    bool
	start     time.Time
	stopSuper func()
	submitted atomic.Int64
}

// StartFleet brings up cfg.Shards independent primaries — each with its
// own journal directory, fencing lease, database, and warm standby —
// and the router/supervisor pair that fronts them. With Heartbeat and
// CheckEvery set the fleet is fully self-driving; with both zero the
// caller owns time and the health sweep (deterministic tests).
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 3
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.TTL <= 0 {
		cfg.TTL = replica.DefaultTTL
	}
	if cfg.SuspectAfter < 1 {
		cfg.SuspectAfter = 1
	}
	if cfg.FailAfter <= cfg.SuspectAfter {
		cfg.FailAfter = cfg.SuspectAfter + 1
	}
	if cfg.FailoverWait <= 0 {
		cfg.FailoverWait = 5 * time.Second
	}
	if cfg.Stack.Prepare == nil {
		return nil, errors.New("wfsql: FleetConfig.Stack is required")
	}

	dir, ownDir := cfg.Dir, false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "wfsql-fleet-")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}

	f := &Fleet{cfg: cfg, obs: cfg.Obs, dir: dir, ownDir: ownDir, start: time.Now()}
	f.Ring = shard.NewRing(cfg.Shards, cfg.VirtualNodes)
	f.Health = shard.NewHealth(cfg.Shards, cfg.SuspectAfter, func(ev shard.Event) {
		m := f.obs.M()
		m.Counter("shard.events").Inc()
		m.Gauge(fmt.Sprintf("shard.state.%d", ev.Shard)).SetInt(int64(ev.To))
	})

	pools := make([]*sched.Pool, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh := &fleetShard{idx: i, dir: filepath.Join(dir, fmt.Sprintf("shard%d", i)), now: time.Now}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			f.Close()
			return nil, err
		}
		env := NewEnvironment(cfg.Workload)
		pri, err := env.StartPrimary(sh.dir, fmt.Sprintf("shard%d-primary", i), cfg.TTL)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wfsql: start shard %d: %w", i, err)
		}
		prepared, err := cfg.Stack.Prepare(env, ResilienceConfig{})
		if err != nil {
			pri.Close()
			f.Close()
			return nil, fmt.Errorf("wfsql: prepare shard %d: %w", i, err)
		}
		ws := NewWarmStandby(sh.dir, cfg.TTL)
		ws.HeartbeatEvery = cfg.Heartbeat
		if _, err := ws.CatchUp(); err != nil {
			pri.Close()
			f.Close()
			return nil, fmt.Errorf("wfsql: warm shard %d standby: %w", i, err)
		}
		if cfg.Heartbeat > 0 {
			pri.Heartbeat(cfg.Heartbeat)
			sh.stopFollow = ws.Follow(cfg.Heartbeat)
		}
		sh.env, sh.run, sh.pri, sh.ws, sh.rec = env, prepared.Run, pri, ws, pri.Rec
		sh.holder, sh.epoch = pri.State.Holder, pri.State.Epoch
		sh.pool = sched.NewPool(sched.PoolConfig{
			Workers:    cfg.Workers,
			QueueBound: cfg.QueueBound,
			Policy:     cfg.Policy,
			Wait:       cfg.Wait,
			Obs:        cfg.Obs,
		})
		pools[i] = sh.pool
		f.shards = append(f.shards, sh)
	}

	f.Router = shard.NewRouter(shard.RouterConfig{
		Ring:         f.Ring,
		Health:       f.Health,
		FailoverWait: cfg.FailoverWait,
		Reroute:      cfg.Reroute,
	}, pools)
	f.Super = shard.NewSupervisor(cfg.Shards, shard.SupervisorConfig{
		Health:    f.Health,
		Probe:     f.probe,
		Failover:  f.failoverShard,
		FailAfter: cfg.FailAfter,
		Interval:  cfg.CheckEvery,
	})
	if cfg.CheckEvery > 0 {
		f.stopSuper = f.Super.Start()
	}
	return f, nil
}

// Submit places key on its home shard (consistent hash) and offers one
// instance run to that shard's admission pool. During a failover of the
// home shard the submission is buffered or rerouted per the
// configuration; shard.ErrUnroutable means the fleet refused it (a
// fleet-level shed, accounted in the report).
func (f *Fleet) Submit(ctx context.Context, key string) error {
	f.submitted.Add(1)
	_, err := f.Router.Submit(ctx, key, func(i int) sched.CtxJob {
		return sched.CtxJob{
			Stack: f.cfg.Stack.Name,
			Name:  key,
			Class: admit.Normal,
			Run:   func(ctx context.Context) error { return f.runOn(ctx, i) },
		}
	})
	return err
}

// runOn executes one instance on shard i, waiting out an in-progress
// failover first. A crash or fencing error from the run marks the
// shard's process dead — the supervisor takes it from there.
func (f *Fleet) runOn(ctx context.Context, i int) error {
	if err := f.awaitServing(ctx, i); err != nil {
		return err
	}
	sh := f.shards[i]
	sh.mu.Lock()
	run := sh.run
	sh.mu.Unlock()
	err := run(ctx)
	if err != nil && (journal.IsCrash(err) || journal.IsFenced(err)) {
		f.shardDied(i, err)
	}
	return err
}

// awaitServing blocks while shard i's process is dead or a takeover is
// in flight, bounded by FailoverWait and ctx — queued work rides out
// the failover window instead of failing.
func (f *Fleet) awaitServing(ctx context.Context, i int) error {
	sh := f.shards[i]
	deadline := time.Now().Add(f.cfg.FailoverWait)
	for {
		st := f.Health.State(i)
		if st == shard.Down {
			return fmt.Errorf("wfsql: shard %d is down", i)
		}
		sh.mu.Lock()
		dead := sh.dead
		sh.mu.Unlock()
		if !dead && st != shard.FailingOver {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wfsql: shard %d still unavailable after %v", i, f.cfg.FailoverWait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// shardDied marks shard i's primary process dead (first caller wins)
// and stops its heartbeat so the lease lapses. A fencing cause is
// latched as a shard-level event immediately.
func (f *Fleet) shardDied(i int, cause error) {
	sh := f.shards[i]
	sh.mu.Lock()
	already := sh.dead
	sh.dead = true
	if !already && sh.pri != nil {
		sh.pri.Pause()
	}
	sh.mu.Unlock()
	if already {
		return
	}
	f.obs.M().Counter("shard.deaths").Inc()
	if journal.IsFenced(cause) {
		f.Health.Fenced(i)
	}
}

// probe is the supervisor's liveness check for shard i: the process
// must not have died and its lease must be fresh by the shard's clock.
func (f *Fleet) probe(i int) bool {
	sh := f.shards[i]
	sh.mu.Lock()
	dead, now := sh.dead, sh.now
	sh.mu.Unlock()
	if dead {
		return false
	}
	st, err := sh.ws.Lease.Read()
	if err != nil {
		return false
	}
	return now().Sub(st.Renewed()) <= f.cfg.TTL
}

// failoverShard promotes shard i's warm standby: stop the follower,
// take over (lease-fenced — retried briefly while the dead primary's
// lease drains its TTL; the takeover re-prepares the stack on the
// rebuilt host and resumes in-flight instances), and swap the shard to
// the new environment. The old primary is probed once to latch the
// fencing evidence as a shard-level event.
func (f *Fleet) failoverShard(i int) error {
	sh := f.shards[i]
	sh.mu.Lock()
	env := sh.env
	pri := sh.pri
	stopFollow := sh.stopFollow
	sh.stopFollow = nil
	if pri != nil {
		pri.Pause()
	}
	sh.mu.Unlock()
	if stopFollow != nil {
		stopFollow()
	}

	holder := fmt.Sprintf("shard%d-standby", i)
	var (
		host     *Environment
		rec      *journal.Recorder
		prepared *Prepared
	)
	deadline := time.Now().Add(2*f.cfg.TTL + 2*time.Second)
	for {
		var err error
		host, rec, prepared, err = sh.ws.Takeover(env, holder, f.cfg.Stack)
		if err == nil {
			break
		}
		// The dead primary's last renewal may still be inside the TTL
		// when the supervisor reacts to the process death; promotion is
		// refused until it lapses.
		if !errors.Is(err, replica.ErrLeaseHeld) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(f.cfg.TTL/10 + time.Millisecond)
	}

	sh.mu.Lock()
	sh.env = host
	sh.run = prepared.Run
	sh.rec = rec
	sh.holder = holder
	sh.epoch = rec.Epoch()
	sh.dead = false
	sh.takeovers++
	sh.mu.Unlock()
	f.obs.M().Counter("shard.takeovers").Inc()

	// Zombie probe: the fenced old recorder must refuse the append —
	// surface the latch at shard level.
	if pri != nil {
		if err := pri.Rec.Deploy(fmt.Sprintf("zombie-probe-shard%d", i)); journal.IsFenced(err) {
			f.Health.Fenced(i)
		}
	}
	return nil
}

// FleetReport aggregates the per-shard pool reports plus the router's
// own refusals. Conservation holds fleet-wide:
// Completed + Failed + Shed == Submitted.
type FleetReport struct {
	Shards     int
	Submitted  int64
	Completed  int64
	Failed     int64
	Shed       int64 // pool sheds on every shard + router Unroutable
	Unroutable int64
	Takeovers  int64
	Elapsed    time.Duration
	Goodput    float64 // completed instances per second, fleet-wide
	Router     shard.RouterStats
	PerShard   []sched.PoolReport
}

// Drain closes every shard's admission queue, waits for queued work to
// finish (including work buffered behind a failover), and returns the
// fleet-wide report.
func (f *Fleet) Drain() FleetReport {
	rep := FleetReport{
		Shards:    len(f.shards),
		Submitted: f.submitted.Load(),
		Router:    f.Router.Stats(),
	}
	for _, sh := range f.shards {
		pr := sh.pool.Drain()
		rep.Completed += pr.Completed
		rep.Failed += pr.Failed
		rep.Shed += pr.Shed
		rep.PerShard = append(rep.PerShard, pr)
		sh.mu.Lock()
		rep.Takeovers += int64(sh.takeovers)
		sh.mu.Unlock()
	}
	rep.Unroutable = rep.Router.Unroutable
	rep.Shed += rep.Unroutable
	rep.Elapsed = time.Since(f.start)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Goodput = float64(rep.Completed) / secs
	}
	return rep
}

// Close stops the supervisor, followers, and heartbeats, and closes
// every shard's recorders. Call Drain first; Close does not wait for
// in-flight work.
func (f *Fleet) Close() {
	if f.stopSuper != nil {
		f.stopSuper()
		f.stopSuper = nil
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		stopFollow := sh.stopFollow
		sh.stopFollow = nil
		pri := sh.pri
		rec := sh.rec
		if pri != nil {
			pri.Pause()
		}
		sh.mu.Unlock()
		if stopFollow != nil {
			stopFollow()
		}
		sh.ws.StopHeartbeat()
		if pri != nil {
			pri.Rec.Close()
		}
		if rec != nil && (pri == nil || rec != pri.Rec) {
			rec.Close()
		}
	}
	if f.ownDir {
		os.RemoveAll(f.dir)
	}
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// ShardEnv returns shard i's current environment (the rebuilt host
// after a takeover).
func (f *Fleet) ShardEnv(i int) *Environment {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.env
}

// ShardPrimary returns shard i's original primary — after a failover
// this is the fenced zombie, which is exactly what chaos tests probe.
func (f *Fleet) ShardPrimary(i int) *Primary { return f.shards[i].pri }

// ShardRecorder returns shard i's authoritative recorder (the promoted
// one after a takeover).
func (f *Fleet) ShardRecorder(i int) *journal.Recorder {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.rec
}

// ShardDead reports whether shard i's primary process has been marked
// dead and not yet replaced by a promotion.
func (f *Fleet) ShardDead(i int) bool {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dead
}

// ShardTakeovers returns how many times shard i has failed over.
func (f *Fleet) ShardTakeovers(i int) int {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.takeovers
}

// SetShardClock injects shard i's time source — the probe's freshness
// check and both lease guards follow it. Deterministic tests give each
// shard its own manual clock and advance only the victim's, so healthy
// shards never spuriously expire.
func (f *Fleet) SetShardClock(i int, now func() time.Time) {
	sh := f.shards[i]
	sh.mu.Lock()
	sh.now = now
	pri := sh.pri
	sh.mu.Unlock()
	if pri != nil {
		pri.Lease.SetClock(now)
	}
	sh.ws.Lease.SetClock(now)
}
