package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/obsv"
)

// TestFlowFaultPropagation pins down the flow activity's fault semantics
// under concurrency: BPEL flow has no cancellation, so when one branch
// faults mid-flight every sibling still runs to completion, the flow
// returns the first fault (in child order), and the trace stays coherent.
// The test is meaningful under -race: branches concurrently write process
// variables and end their spans.
func TestFlowFaultPropagation(t *testing.T) {
	e := New(nil)
	col := collect(e)

	var completed atomic.Int32
	children := make([]Activity, 0, 9)
	for i := 0; i < 8; i++ {
		name := "branch" + string(rune('A'+i))
		children = append(children, NewSnippet(name, func(ctx *Ctx) error {
			// Concurrent writes to a shared variable: last-writer-wins,
			// but never a torn read/write (Variable is mutex-guarded).
			if err := ctx.SetScalar("shared", name); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond) // outlive the faulting branch
			if _, err := ctx.Variable("shared"); err != nil {
				return err
			}
			completed.Add(1)
			return nil
		}))
	}
	children = append(children, NewSnippet("badBranch", func(ctx *Ctx) error {
		time.Sleep(time.Millisecond) // fault while siblings are mid-flight
		return &Fault{Name: "boom", Activity: "badBranch"}
	}))

	p := &Process{
		Name:      "flowFault",
		Variables: []VarDecl{{Name: "shared", Kind: ScalarVar}},
		Body:      NewFlow("flow", children...),
	}
	d, err := e.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Run(nil)
	if err == nil {
		t.Fatal("flow should propagate the branch fault")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("propagated error %v, want the boom fault", err)
	}
	if inst.State() != StateFaulted {
		t.Fatalf("instance state %v, want faulted", inst.State())
	}

	// No cancellation: every sibling ran to completion despite the fault.
	if n := completed.Load(); n != 8 {
		t.Fatalf("%d siblings completed, want 8 (flow must not cancel in-flight branches)", n)
	}

	// Trace integrity despite concurrent emission: one ended span per
	// branch, each parented under the flow's span, eight ok and the bad
	// branch faulted — and the flow's own span faulted too.
	flow := col.ByName("flow")
	if len(flow) != 1 || flow[0].Outcome != obsv.OutcomeFault {
		t.Fatalf("want one faulted flow span:\n%s", col.TreeString())
	}
	outcomes := map[string]obsv.Outcome{}
	for _, s := range col.Children(flow[0].ID) {
		if _, dup := outcomes[s.Name]; dup {
			t.Fatalf("branch %s has two spans", s.Name)
		}
		outcomes[s.Name] = s.Outcome
	}
	for _, c := range children {
		want := obsv.OutcomeOK
		if c.Name() == "badBranch" {
			want = obsv.OutcomeFault
		}
		if outcomes[c.Name()] != want {
			t.Fatalf("branch %s outcome %q, want %q:\n%s", c.Name(), outcomes[c.Name()], want, col.TreeString())
		}
	}
	if len(outcomes) != len(children) {
		t.Fatalf("%d branch spans under the flow, want %d", len(outcomes), len(children))
	}
}

// TestFlowFirstFaultInChildOrder: when several branches fault, the flow
// reports the first faulting child in declaration order (deterministic
// despite concurrent execution).
func TestFlowFirstFaultInChildOrder(t *testing.T) {
	e := New(nil)
	body := NewFlow("flow",
		NewSnippet("c0", func(ctx *Ctx) error {
			time.Sleep(3 * time.Millisecond)
			return &Fault{Name: "firstByOrder", Activity: "c0"}
		}),
		NewSnippet("c1", func(ctx *Ctx) error {
			return &Fault{Name: "firstByTime", Activity: "c1"} // faults earlier in time
		}),
	)
	d, err := e.Deploy(&Process{Name: "flowOrder", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "firstByOrder") {
		t.Fatalf("flow returned %v, want the first fault in child order", err)
	}
}
