package wfsql

import (
	"testing"

	"wfsql/internal/chaos"
	"wfsql/internal/obsv"
)

// This file is the parallel-execution matrix for the tentpole scheduler:
// N instances of each product stack's running example driven through
// internal/sched against one shared database, under -race. The invariant
// is multiplicative: every instance appends one confirmation per approved
// item type, so ConfirmationCount() == Instances × ApprovedItemTypes().

const (
	parInstances = 8
	parWorkers   = 4
)

// TestParallelFiguresAllStacks runs N instances of each figure on a
// 4-worker pool and checks the multiplicative confirmation invariant,
// the report shape, and the scheduler's obsv counters.
func TestParallelFiguresAllStacks(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			o := env.EnableObservability(nil)
			rep, err := env.RunParallel(stack, ParallelConfig{Instances: parInstances, Workers: parWorkers})
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if rep.Jobs != parInstances || rep.Failed != 0 || rep.Workers != parWorkers {
				t.Fatalf("report = %+v", rep)
			}
			if rep.Throughput <= 0 {
				t.Fatalf("throughput = %v", rep.Throughput)
			}
			want := parInstances * env.ApprovedItemTypes()
			if got := env.ConfirmationCount(); got != want {
				t.Fatalf("confirmations = %d, want %d (instances × item types)", got, want)
			}
			if got := o.M().Counter("sched.ok").Value(); got != parInstances {
				t.Fatalf("sched.ok = %d, want %d", got, parInstances)
			}
			if got := o.M().Histogram("sched.run_ms").Count(); got != parInstances {
				t.Fatalf("sched.run_ms count = %d, want %d", got, parInstances)
			}
		})
	}
}

// TestParallelMatchesSerial checks that a parallel run commits exactly
// the same confirmation rows as the same instance count run serially
// (Workers=1) — concurrency must not change visible effects.
func TestParallelMatchesSerial(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			serialEnv := NewEnvironment(w)
			if _, err := serialEnv.RunParallel(stack, ParallelConfig{Instances: parInstances, Workers: 1}); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			want := confirmationRows(t, serialEnv)

			parEnv := NewEnvironment(w)
			if _, err := parEnv.RunParallel(stack, ParallelConfig{Instances: parInstances, Workers: parWorkers}); err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if got := confirmationRows(t, parEnv); !sameRows(got, want) {
				t.Fatalf("parallel rows diverge from serial:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestParallelUnderChaos replays the chaos matrix's transient fault
// window with the scheduler enabled: N instances per stack race through
// a faulting supplier, each healing via its invoke retry policy, and the
// multiplicative invariant still holds.
func TestParallelUnderChaos(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	cfg := ParallelConfig{
		Instances:  parInstances,
		Workers:    parWorkers,
		Resilience: ResilienceConfig{Invoke: quickPolicy(10), SQL: quickPolicy(10)},
	}

	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			plan := chaos.NewFaultPlan(7)
			plan.FailRate = 0.2
			injectSupplierFaults(t, env, stack, plan)
			if _, err := env.RunParallel(stack, cfg); err != nil {
				t.Fatalf("parallel run under chaos: %v", err)
			}
			if plan.Injected() == 0 {
				t.Fatal("fault plan injected nothing — test proved nothing")
			}
			if got, want := env.ConfirmationCount(), parInstances*env.ApprovedItemTypes(); got != want {
				t.Fatalf("confirmations = %d, want %d", got, want)
			}
		})
	}
}

// TestParallelJournaledInstancesComplete attaches the durable journal to
// both hosts and runs the parallel matrix: every concurrent instance
// writes its own instance journal, and after the run the journal holds
// zero in-flight instances (all begin/complete pairs matched up despite
// interleaved appends).
func TestParallelJournaledInstancesComplete(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			rec := openJournal(t, t.TempDir())
			defer rec.Close()
			env.AttachJournal(rec)

			if _, err := env.RunParallel(stack, ParallelConfig{Instances: parInstances, Workers: parWorkers}); err != nil {
				t.Fatalf("journaled parallel run: %v", err)
			}
			if n := len(rec.InFlight()); n != 0 {
				t.Fatalf("journal holds %d in-flight instances after completion, want 0", n)
			}
			if got, want := env.ConfirmationCount(), parInstances*env.ApprovedItemTypes(); got != want {
				t.Fatalf("confirmations = %d, want %d", got, want)
			}
		})
	}
}

// TestParallelStatementCacheAndLockWait checks the tentpole's sqldb
// surface under scheduler load: repeated parallel WF instances hit the
// parsed-statement cache (same SQL text across instances) and every
// statement reports its engine-lock wait through the obsv histogram.
func TestParallelStatementCacheAndLockWait(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3})
	o := env.EnableObservability(obsv.New())
	if _, err := env.RunParallel(StackWF, ParallelConfig{Instances: parInstances, Workers: parWorkers}); err != nil {
		t.Fatal(err)
	}
	cs := env.DB.StmtCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("statement cache hits = 0 across %d identical instances (stats %+v)", parInstances, cs)
	}
	m := o.M()
	if got := m.Counter("sqldb.stmtcache.hits").Value(); got != cs.Hits {
		t.Fatalf("obsv cache-hit counter = %d, db stats say %d", got, cs.Hits)
	}
	lw := m.Histogram("sqldb.lock_wait_ms")
	if lw.Count() == 0 {
		t.Fatal("sqldb.lock_wait_ms histogram empty — lock waits not surfaced")
	}
	// Paranoia: time should be sane (histogram observed non-negative).
	if s := lw.Summary(); s.Max < 0 {
		t.Fatalf("negative lock wait recorded: %+v", s)
	}
}
