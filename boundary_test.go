package wfsql

import (
	"context"
	"errors"
	"testing"

	"wfsql/internal/host"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
)

// This file checks the activity boundary both workflow hosts share
// (internal/host) on all three stacks: the BPEL engine under BIS and
// Oracle, the WF runtime under WF.

// hostPrefix is the metric prefix of the host the stack runs on.
func hostPrefix(s Stack) string {
	if s.Name == "WF" {
		return "wf"
	}
	return "engine"
}

// TestCompletionAppendFailureFailsRun: an instance whose completion
// record the journal refused is still in flight as far as recovery can
// tell, so its run must not report success.
func TestCompletionAppendFailureFailsRun(t *testing.T) {
	refused := errors.New("completion refused")
	for _, s := range Stacks() {
		t.Run(matrixName(s), func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			rec := openJournal(t, t.TempDir())
			defer rec.Close()
			rec.SetAppendGuard(func(r *journal.Record) error {
				if r.Kind == journal.KindInstanceComplete {
					return refused
				}
				return nil
			})
			env.AttachJournal(rec)
			if err := env.Run(s, ResilienceConfig{}); !errors.Is(err, refused) {
				t.Fatalf("run = %v, want the guard's %v", err, refused)
			}
			if n := len(rec.InFlight()); n != 1 {
				t.Fatalf("%d instances in flight, want the one whose completion was refused", n)
			}
		})
	}
}

// TestBudgetRefusedAtTheFirstBoundary: an instance started with its
// budget already spent is refused at its first activity boundary on every
// stack, deterministically. It runs no statement and no activity, its
// trace is the instance span alone, ending fault, and the refusal and the
// faulted instance are each counted once.
func TestBudgetRefusedAtTheFirstBoundary(t *testing.T) {
	for _, s := range Stacks() {
		t.Run(matrixName(s), func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			p, err := s.Prepare(env, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			o := env.EnableObservability(nil)
			col := obsv.NewCollector()
			o.T().AddSink(col)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			before := env.DB.Stats().Statements

			err = p.Run(ctx)
			if !errors.Is(err, host.ErrBudgetExceeded) || !errors.Is(err, context.Canceled) {
				t.Fatalf("run = %v, want host.ErrBudgetExceeded wrapping context.Canceled", err)
			}
			if n := env.DB.Stats().Statements - before; n != 0 {
				t.Errorf("%d statements ran, want 0", n)
			}
			spans := col.Spans()
			if len(spans) != 1 || spans[0].Kind != obsv.KindInstance || spans[0].Outcome != obsv.OutcomeFault {
				t.Fatalf("trace, want one instance span ending fault:\n%s", col.TreeString())
			}
			for _, name := range []string{".deadline_expired", ".instances.faulted"} {
				if got := o.M().Counter(hostPrefix(s) + name).Value(); got != 1 {
					t.Errorf("%s%s = %d, want 1", hostPrefix(s), name, got)
				}
			}
		})
	}
}
