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

// TestParallelSpanTreesMatchSerial traces N instances of each figure on
// a 4-worker pool: the only root spans are the N instance spans, every
// other span roots at one of them inside its parent's time, and each
// instance owns exactly the SQL and bus spans one instance owns when run
// alone. A statement or call parented at whichever instance touched a
// shared tracer last fails the last check; one parented at none fails
// the first.
func TestParallelSpanTreesMatchSerial(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	serial := map[string]struct{ sql, bus int }{
		StackBIS.Name:    {sql: 8, bus: 4},
		StackWF.Name:     {sql: 5},
		StackOracle.Name: {sql: 5, bus: 4},
	}
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			col := obsv.NewCollector()
			env.EnableObservability(nil).T().AddSink(col)
			if _, err := env.RunParallel(stack, ParallelConfig{Instances: parInstances, Workers: parWorkers}); err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			env.DisableObservability()

			spans := col.Spans()
			idx := spanIndex(spans)
			type owned struct{ sql, bus int }
			per := map[uint64]*owned{}
			for _, s := range spans {
				if s.Parent == 0 {
					if s.Kind != obsv.KindInstance {
						t.Errorf("root span %d is %s %q, not an instance span", s.ID, s.Kind, s.Name)
					} else if per[s.ID] == nil {
						per[s.ID] = &owned{}
					}
					continue
				}
				root := s
				for hops := 0; root.Parent != 0; hops++ {
					p, ok := idx[root.Parent]
					if !ok || hops > len(spans) {
						t.Fatalf("span %d (%s %q): parent chain breaks at %d", s.ID, s.Kind, s.Name, root.Parent)
					}
					if root == s && (s.Start.Before(p.Start) || s.EndTime.After(p.EndTime)) {
						t.Errorf("span %d (%s %q) runs outside its parent %d (%s %q)", s.ID, s.Kind, s.Name, p.ID, p.Kind, p.Name)
					}
					root = p
				}
				if root.Kind != obsv.KindInstance {
					t.Errorf("span %d (%s %q) roots at %s %q", s.ID, s.Kind, s.Name, root.Kind, root.Name)
					continue
				}
				if per[root.ID] == nil {
					per[root.ID] = &owned{}
				}
				switch s.Kind {
				case obsv.KindSQL:
					per[root.ID].sql++
				case obsv.KindBus:
					per[root.ID].bus++
				}
			}
			if len(per) != parInstances {
				t.Fatalf("%d instance trees, want %d", len(per), parInstances)
			}
			want := serial[stack.Name]
			for id, got := range per {
				if got.sql != want.sql || got.bus != want.bus {
					t.Errorf("instance span %d owns %d SQL and %d bus spans, want %d and %d", id, got.sql, got.bus, want.sql, want.bus)
				}
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
