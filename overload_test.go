package wfsql

import (
	"context"
	"errors"
	"testing"
	"time"

	"wfsql/internal/admit"
	"wfsql/internal/journal"
	"wfsql/internal/resilience"
	"wfsql/internal/sqldb"
)

// This file is the overload chaos matrix: a burst of instances against a
// small worker pool with injected supplier latency, run under -race.
// The invariants: the admission queue never exceeds its bound, every
// submitted instance is accounted exactly once (shed + completed ==
// submitted), completed instances commit exactly what serial execution
// would, shed instances are dead-lettered with a SHED reason, and load
// shedding keeps p99 queue wait strictly below the unbounded baseline.

const (
	overloadInstances = 256
	overloadWorkers   = 4
	supplierLatency   = 5 * time.Millisecond
)

func overloadWorkload() Workload {
	return Workload{Orders: 8, Items: 2, ApprovalPercent: 100, Seed: 3}
}

// TestOverloadBurstShedConservation is the headline chaos test: 256
// instances burst onto 4 workers through a bounded Shed queue while
// every supplier call costs 5ms.
func TestOverloadBurstShedConservation(t *testing.T) {
	env := NewEnvironment(overloadWorkload())
	o := env.EnableObservability(nil)
	env.Bus.SetLatency(supplierLatency)

	const bound = 8
	rep, err := env.RunOverload(StackBIS, OverloadConfig{
		Instances:  overloadInstances,
		Workers:    overloadWorkers,
		QueueBound: bound,
		Policy:     admit.Shed,
	})
	if err != nil {
		t.Fatalf("overload run: %v", err)
	}

	// Nothing lost, nothing double-counted.
	if rep.Submitted != overloadInstances {
		t.Fatalf("submitted = %d, want %d", rep.Submitted, overloadInstances)
	}
	if rep.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (no budget, healthy supplier)", rep.Failed)
	}
	if rep.Completed+rep.Shed != rep.Submitted {
		t.Fatalf("conservation violated: completed %d + shed %d != submitted %d",
			rep.Completed, rep.Shed, rep.Submitted)
	}
	if rep.Shed == 0 {
		t.Fatal("no sheds: burst did not overload the bounded queue")
	}
	if rep.Completed == 0 {
		t.Fatal("no completions under overload — shedding must protect goodput, not replace it")
	}

	// No instance both sheds and completes: every submitted name appears
	// exactly once across results.
	seen := map[string]int{}
	for _, r := range rep.Results {
		seen[r.Name]++
	}
	if int64(len(seen)) != rep.Submitted {
		t.Fatalf("distinct results = %d, want %d", len(seen), rep.Submitted)
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("instance %s accounted %d times", name, n)
		}
	}

	// The queue never exceeded its bound (report watermark and gauge).
	if rep.QueueHighWater > bound {
		t.Fatalf("queue high water %d exceeds bound %d", rep.QueueHighWater, bound)
	}
	if hw := o.M().Gauge("sched.queue_depth").High(); hw > bound {
		t.Fatalf("sched.queue_depth high watermark %v exceeds bound %d", hw, bound)
	}

	// Completed instances are serial-equivalent: each commits exactly one
	// confirmation per approved item type, sheds commit nothing.
	want := int(rep.Completed) * env.ApprovedItemTypes()
	if got := env.ConfirmationCount(); got != want {
		t.Fatalf("confirmations = %d, want %d (completed × item types)", got, want)
	}

	// Every shed instance is dead-lettered with the SHED reason.
	letters := env.Engine.DeadLetters.Entries()
	shedLetters := 0
	for _, dl := range letters {
		if dl.Reason == resilience.ReasonShed {
			shedLetters++
			if dl.Activity != "Admission" || dl.Target != "BIS" {
				t.Fatalf("malformed shed dead letter: %+v", dl)
			}
		}
	}
	if int64(shedLetters) != rep.Shed {
		t.Fatalf("SHED dead letters = %d, want %d", shedLetters, rep.Shed)
	}

	// Metrics surfaced the shedding.
	if got := o.M().Counter("admit.shed").Value(); got != rep.Shed {
		t.Fatalf("admit.shed = %d, want %d", got, rep.Shed)
	}
}

// TestOverloadShedBeatsUnboundedQueueWait: under the same burst, p99
// queue wait with a bounded Shed queue is strictly below the unbounded
// (Block, capacity >= burst) baseline — the whole point of admission
// control.
func TestOverloadShedBeatsUnboundedQueueWait(t *testing.T) {
	run := func(policy admit.Policy, bound int) time.Duration {
		env := NewEnvironment(overloadWorkload())
		env.Bus.SetLatency(supplierLatency)
		rep, err := env.RunOverload(StackBIS, OverloadConfig{
			Instances:  overloadInstances,
			Workers:    overloadWorkers,
			QueueBound: bound,
			Policy:     policy,
		})
		if err != nil {
			t.Fatalf("run(%v,%d): %v", policy, bound, err)
		}
		return rep.QueueWaitP99()
	}

	baseline := run(admit.Block, overloadInstances) // effectively unbounded
	shed := run(admit.Shed, 8)
	if shed >= baseline {
		t.Fatalf("p99 queue wait under Shed (%v) not below unbounded baseline (%v)", shed, baseline)
	}
}

// TestOverloadBudgetCancelsAtBoundaries: with a per-instance budget far
// below the burst's drain time, instances expire in the queue (shed
// without starting) or mid-run (cancelled at the next activity/statement
// boundary with a budget fault). Conservation still holds and every
// failure is a budget error — never a hang.
func TestOverloadBudgetCancelsAtBoundaries(t *testing.T) {
	env := NewEnvironment(overloadWorkload())
	env.Bus.SetLatency(supplierLatency)

	rep, err := env.RunOverload(StackBIS, OverloadConfig{
		Instances:  64,
		Workers:    2,
		QueueBound: 64,
		Policy:     admit.Block,
		Budget:     40 * time.Millisecond,
	})
	// Budget faults are real instance failures; assert on the report, not err.
	_ = err

	if rep.Completed+rep.Failed+rep.Shed != rep.Submitted {
		t.Fatalf("conservation violated: %+v", rep)
	}
	if rep.Shed == 0 {
		t.Fatal("expected expired-in-queue sheds with a 40ms budget behind a 2-worker drain")
	}
	for _, r := range rep.Results {
		if r.Shed {
			if r.ShedReason != admit.ReasonExpiredInQueue && r.ShedReason != admit.ReasonDeadline {
				t.Fatalf("shed reason = %q, want an expiry reason", r.ShedReason)
			}
			continue
		}
		if r.Err != nil &&
			!errors.Is(r.Err, context.DeadlineExceeded) &&
			!errors.Is(r.Err, sqldb.ErrBudgetExhausted) {
			t.Fatalf("non-budget failure under budget pressure: %v", r.Err)
		}
	}
}

// slowSupplier makes every supplier call cost d where the stack reaches
// the supplier: over the bus on the BPEL stacks, through the registered
// service on WF.
func slowSupplier(env *Environment, s Stack, d time.Duration) {
	env.Bus.SetLatency(d)
	if s.Name == "WF" {
		env.Runtime.RegisterService("OrderFromSupplier", func(req map[string]string) (map[string]string, error) {
			time.Sleep(d)
			return env.Supplier.Handle(req)
		})
	}
}

// TestOverloadBrownoutDegradesAndRecovers: sustained pressure over the
// watermark activates the brown-out — deferrable instances are shed with
// a brownout reason and the journal sync policy relaxes always→critical
// — and draining the queue deactivates it, restoring the policy. The
// recorder is attached only to the host the stack runs on, so the
// relaxation must reach that host's journal: on WF that is the runtime's,
// not the BPEL engine's.
func TestOverloadBrownoutDegradesAndRecovers(t *testing.T) {
	for _, stack := range []Stack{StackBIS, StackWF} {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(overloadWorkload())
			o := env.EnableObservability(nil)
			slowSupplier(env, stack, supplierLatency)

			rec, err := journal.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncAlways})
			if stack.Name == "WF" {
				env.Runtime.AttachJournal(rec)
			} else {
				env.Engine.AttachJournal(rec)
			}

			rep, err := env.RunOverload(stack, OverloadConfig{
				Instances:       128,
				Workers:         overloadWorkers,
				QueueBound:      16,
				Policy:          admit.Block,
				BrownoutHigh:    8,
				BrownoutWindow:  time.Millisecond,
				DeferrableEvery: 4,
			})
			if err != nil {
				t.Fatalf("overload run: %v", err)
			}
			if rep.Completed+rep.Shed != rep.Submitted {
				t.Fatalf("conservation violated: %+v", rep)
			}

			if acts := o.M().Counter("brownout.activations").Value(); acts == 0 {
				t.Fatal("brown-out never activated under sustained pressure")
			}
			if high := o.M().Gauge("brownout.active").High(); high != 1 {
				t.Fatalf("brownout.active high = %v, want 1", high)
			}

			// Only deferrable instances were shed, with the brownout reason.
			brownoutSheds := 0
			for _, r := range rep.Results {
				if !r.Shed {
					continue
				}
				if r.Class != admit.Deferrable {
					t.Fatalf("brown-out shed a %v-class instance: %+v", r.Class, r)
				}
				if r.ShedReason != admit.ReasonBrownout {
					t.Fatalf("shed reason = %q, want %q", r.ShedReason, admit.ReasonBrownout)
				}
				brownoutSheds++
			}
			if brownoutSheds == 0 {
				t.Fatal("no deferrable instances shed during brown-out")
			}

			// The sync policy really relaxed while the brown-out was
			// active: under SyncAlways every append is fsynced, so fewer
			// syncs than appends means non-critical records were batched.
			if syncs, appends := rec.SyncCount(), o.M().Counter("journal.appends").Value(); syncs >= appends {
				t.Fatalf("%d fsyncs for %d appends: the brown-out never relaxed this host's journal", syncs, appends)
			}

			// After the queue drained, the degradation must be rolled back.
			if got := rec.SyncPolicy().Mode; got != journal.SyncAlways {
				t.Fatalf("journal sync policy not restored after brown-out: %v", got)
			}
			if o.M().Gauge("brownout.active").Value() != 0 {
				t.Fatal("brown-out still active after drain")
			}
		})
	}
}

// TestOverloadAIMDLimiterAdapts: with a latency target far below the
// injected supplier latency, the adaptive limiter backs concurrency off
// from Workers toward Min while every admitted instance still completes.
func TestOverloadAIMDLimiterAdapts(t *testing.T) {
	env := NewEnvironment(overloadWorkload())
	o := env.EnableObservability(nil)
	env.Bus.SetLatency(supplierLatency)

	rep, err := env.RunOverload(StackBIS, OverloadConfig{
		Instances:  64,
		Workers:    overloadWorkers,
		QueueBound: 64,
		Policy:     admit.Block,
		AIMDTarget: time.Millisecond, // unreachable with 5ms supplier calls
		AIMDWindow: 8,
	})
	if err != nil {
		t.Fatalf("overload run: %v", err)
	}
	if rep.Completed != rep.Submitted {
		t.Fatalf("completed = %d, want %d", rep.Completed, rep.Submitted)
	}
	if rep.FinalLimit >= overloadWorkers {
		t.Fatalf("final limit = %d, want < %d (multiplicative decrease)", rep.FinalLimit, overloadWorkers)
	}
	if dec := o.M().Counter("admit.limit.decrease").Value(); dec == 0 {
		t.Fatal("limiter never decreased despite p99 >> target")
	}
}

// TestOverloadAllStacksConserve runs a smaller burst through each
// product stack's overload runner: conservation and serial equivalence
// hold on WF and Oracle exactly as on BIS.
func TestOverloadAllStacksConserve(t *testing.T) {
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(overloadWorkload())
			env.Bus.SetLatency(supplierLatency)
			p, err := stack.Prepare(env, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := env.RunOverload(stack, OverloadConfig{
				Instances:  64,
				Workers:    overloadWorkers,
				QueueBound: 8,
				Policy:     admit.Shed,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			completed, shed, submitted := rep.Completed, rep.Shed, rep.Submitted
			if n := len(p.DeadLetters.Entries()); int64(n) != shed {
				t.Fatalf("%s dead letters = %d, want %d", stack.Name, n, shed)
			}
			if completed+shed != submitted {
				t.Fatalf("conservation violated: %d + %d != %d", completed, shed, submitted)
			}
			want := int(completed) * env.ApprovedItemTypes()
			if got := env.ConfirmationCount(); got != want {
				t.Fatalf("confirmations = %d, want %d", got, want)
			}
		})
	}
}
