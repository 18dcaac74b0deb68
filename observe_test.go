package wfsql

import (
	"bytes"
	"encoding/json"
	"testing"

	"wfsql/internal/chaos"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
)

// This file proves the observability layer end to end on the paper's
// running example: every Figure-4/6/8 run emits one complete span tree —
// instance → activity → SQL statement / bus call — into both the
// in-memory Collector and the JSONL exporter, the metrics registry's
// counters agree with the trace, and the retry / journal-replay counters
// match what the chaos and crash planners actually injected.

// spanIndex maps collected span ids to spans.
func spanIndex(spans []*obsv.Span) map[uint64]*obsv.Span {
	idx := make(map[uint64]*obsv.Span, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
	}
	return idx
}

// assertTreeWellFormed checks that every non-root span's parent was also
// collected (no orphaned spans) and that following Parent links reaches a
// KindInstance root.
func assertTreeWellFormed(t *testing.T, spans []*obsv.Span) {
	t.Helper()
	idx := spanIndex(spans)
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Kind != obsv.KindInstance {
				t.Errorf("root span %d (%s %q) is not an instance span", s.ID, s.Kind, s.Name)
			}
			continue
		}
		cur, hops := s, 0
		for cur.Parent != 0 {
			p, ok := idx[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s %q) has parent %d that was never exported", cur.ID, cur.Kind, cur.Name, cur.Parent)
			}
			cur = p
			if hops++; hops > len(spans) {
				t.Fatal("parent chain cycle")
			}
		}
		if cur.Kind != obsv.KindInstance {
			t.Errorf("span %d (%s %q) roots at %s %q, want an instance span", s.ID, s.Kind, s.Name, cur.Kind, cur.Name)
		}
	}
}

// TestObservabilityFigureTraces runs each product stack's figure with one
// observability bundle attached and checks the span tree (shape, stack
// label, outcomes), the JSONL export, and the trace/metrics agreement.
func TestObservabilityFigureTraces(t *testing.T) {
	w := Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5}
	stacks := []struct {
		Stack
		wantBus bool
		instCtr string // counter that must read 1
		actCtr  string // counter that must equal the activity-span count
		doneCtr string // counter that must read 1
	}{
		{StackBIS, true, "engine.instances", "engine.activities", "engine.instances.completed"},
		{StackWF, false, "wf.instances", "wf.activities", "wf.instances.completed"},
		{StackOracle, true, "engine.instances", "engine.activities", "engine.instances.completed"},
	}
	for _, st := range stacks {
		st := st
		t.Run(matrixName(st.Stack), func(t *testing.T) {
			env := NewEnvironment(w)
			o := env.EnableObservability(nil)
			col := obsv.NewCollector()
			o.T().AddSink(col)
			var jsonl bytes.Buffer
			jw := obsv.NewJSONLWriter(&jsonl)
			o.T().AddSink(jw)

			if err := env.Run(st.Stack, ResilienceConfig{}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if jw.Err() != nil {
				t.Fatalf("jsonl writer: %v", jw.Err())
			}
			// Detach before asserting: the assertions below query the DB
			// themselves and must not add spans to the captured trace.
			env.DisableObservability()

			spans := col.Spans()
			assertTreeWellFormed(t, spans)

			// Exactly one instance span, labeled with the product stack,
			// finished OK.
			insts := col.ByKind(obsv.KindInstance)
			if len(insts) != 1 {
				t.Fatalf("%d instance spans, want 1:\n%s", len(insts), col.TreeString())
			}
			root := insts[0]
			if root.Stack != st.Name {
				t.Errorf("instance span stack = %q, want %q", root.Stack, st.Name)
			}
			if root.Outcome != obsv.OutcomeOK {
				t.Errorf("instance span outcome = %q, want %q", root.Outcome, obsv.OutcomeOK)
			}
			if root.EndTime.IsZero() {
				t.Error("instance span never ended")
			}
			if root.Instance == 0 {
				t.Error("instance span has no instance id")
			}

			// Activity spans exist, inherit the stack label, and agree
			// with the activity counter.
			acts := col.ByKind(obsv.KindActivity)
			if len(acts) == 0 {
				t.Fatal("no activity spans")
			}
			for _, a := range acts {
				if a.Stack != st.Name {
					t.Errorf("activity %q stack = %q, want %q", a.Name, a.Stack, st.Name)
				}
				if a.Instance != root.Instance {
					t.Errorf("activity %q instance = %d, want %d", a.Name, a.Instance, root.Instance)
				}
			}
			if got := o.M().Counter(st.actCtr).Value(); got != int64(len(acts)) {
				t.Errorf("%s = %d, want %d (one per activity span)", st.actCtr, got, len(acts))
			}
			for _, name := range []string{st.instCtr, st.doneCtr} {
				if got := o.M().Counter(name).Value(); got != 1 {
					t.Errorf("%s = %d, want 1", name, got)
				}
			}

			// Every SQL statement is traced and parented under an
			// activity; the per-statement counter agrees.
			sqls := col.ByKind(obsv.KindSQL)
			if len(sqls) == 0 {
				t.Fatal("no SQL spans")
			}
			idx := spanIndex(spans)
			for _, s := range sqls {
				p, ok := idx[s.Parent]
				if !ok || (p.Kind != obsv.KindActivity && p.Kind != obsv.KindInstance) {
					t.Errorf("SQL span %q parent %d is not an activity/instance span", s.Name, s.Parent)
				}
				if s.Attrs["db"] != DataSourceName {
					t.Errorf("SQL span %q db attr = %q, want %q", s.Name, s.Attrs["db"], DataSourceName)
				}
			}
			if got := o.M().Counter("sqldb.stmt").Value(); got != int64(len(sqls)) {
				t.Errorf("sqldb.stmt = %d, want %d (one per SQL span)", got, len(sqls))
			}

			// BPEL stacks route supplier invocations over the bus: one
			// bus span per approved item type, each under an activity.
			bus := col.ByKind(obsv.KindBus)
			if st.wantBus {
				if got, want := len(bus), env.ApprovedItemTypes(); got != want {
					t.Errorf("%d bus spans, want %d (one per approved item type)", got, want)
				}
				for _, b := range bus {
					if p, ok := idx[b.Parent]; !ok || p.Kind != obsv.KindActivity {
						t.Errorf("bus span %q not parented under an activity", b.Name)
					}
				}
			}

			// The JSONL export carries the same spans, one valid JSON
			// object per line.
			lines := bytes.Split(bytes.TrimSpace(jsonl.Bytes()), []byte("\n"))
			if len(lines) != len(spans) {
				t.Fatalf("JSONL has %d lines, collector has %d spans", len(lines), len(spans))
			}
			names := map[string]int{}
			for _, ln := range lines {
				var got struct {
					ID      uint64 `json:"id"`
					Kind    string `json:"kind"`
					Name    string `json:"name"`
					Outcome string `json:"outcome"`
				}
				if err := json.Unmarshal(ln, &got); err != nil {
					t.Fatalf("bad JSONL line %q: %v", ln, err)
				}
				if got.ID == 0 || got.Kind == "" || got.Outcome == "" {
					t.Fatalf("JSONL line missing fields: %s", ln)
				}
				names[got.Name]++
			}
			for _, a := range acts {
				if names[a.Name] == 0 {
					t.Errorf("activity %q missing from JSONL trace", a.Name)
				}
			}

			// Figure 8's extension functions: one ora:query-database per
			// instance, one ora:processXSQL per approved item type.
			if st.Stack.Name == StackOracle.Name {
				for name, want := range map[string]int{"ora.calls.query-database": 1, "ora.calls.processXSQL": env.ApprovedItemTypes()} {
					if got := o.M().Counter(name).Value(); got != int64(want) {
						t.Errorf("%s = %d, want %d", name, got, want)
					}
				}
			}

			// Metrics snapshot agrees with the trace on row movement.
			if got := o.M().Counter("sqldb.rows_returned").Value(); got == 0 {
				t.Error("sqldb.rows_returned = 0, want > 0 (the figures all query Orders)")
			}
		})
	}
}

// TestObservabilityRetryCountersMatchChaos injects the standard transient
// fault window into the supplier and checks the retry counters account
// for exactly the injected faults: every failure was retried with a
// backoff, nothing was abandoned, and the instance completed.
func TestObservabilityRetryCountersMatchChaos(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	env := NewEnvironment(w)
	o := env.EnableObservability(nil)
	col := obsv.NewCollector()
	o.T().AddSink(col)

	plan := chaosWindow()
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(StackBIS, ResilienceConfig{Invoke: quickPolicy(8)}); err != nil {
		t.Fatalf("resilient run under chaos: %v", err)
	}
	injected := int64(plan.Injected())
	if injected == 0 {
		t.Fatal("fault plan injected nothing — test proved nothing")
	}

	m := o.M()
	attempts := m.Counter("retry.attempts").Value()
	successes := m.Counter("retry.successes").Value()
	failures := m.Counter("retry.failures").Value()
	backoffs := m.Counter("retry.backoffs").Value()

	if failures != injected {
		t.Errorf("retry.failures = %d, want %d (one per injected fault)", failures, injected)
	}
	if backoffs != injected {
		t.Errorf("retry.backoffs = %d, want %d (every failure retried after a backoff)", backoffs, injected)
	}
	if attempts != successes+failures {
		t.Errorf("retry.attempts = %d, want successes+failures = %d", attempts, successes+failures)
	}
	if want := int64(env.ApprovedItemTypes()); successes != want {
		t.Errorf("retry.successes = %d, want %d (one per approved item type)", successes, want)
	}
	if got := m.Counter("retry.giveups").Value(); got != 0 {
		t.Errorf("retry.giveups = %d, want 0 (transient window must heal)", got)
	}
	if got := m.Histogram("retry.backoff_ms").Count(); got != backoffs {
		t.Errorf("retry.backoff_ms histogram count = %d, want %d", got, backoffs)
	}
	if got := m.Counter("engine.instances.completed").Value(); got != 1 {
		t.Errorf("engine.instances.completed = %d, want 1", got)
	}

	// Each retry attempt is one bus dispatch, so the bus span count must
	// equal the attempt count, with exactly the injected faults faulted.
	busSpans := col.ByKind(obsv.KindBus)
	if int64(len(busSpans)) != attempts {
		t.Errorf("%d bus spans, want %d (one per retry attempt)", len(busSpans), attempts)
	}
	var faulted int64
	for _, b := range busSpans {
		if b.Outcome == obsv.OutcomeFault {
			faulted++
		}
	}
	// Panic-injected faults unwind past the bus span's normal return
	// path, so at minimum the fail-fast and slow-fail injections show up
	// as faulted bus spans; never more than the injected total.
	if faulted > injected {
		t.Errorf("%d faulted bus spans, want at most %d injected", faulted, injected)
	}
	if faulted == 0 {
		t.Error("no faulted bus spans despite injected faults")
	}
}

// TestObservabilityJournalReplayCounters crashes a journaled BIS run
// mid-loop, recovers it on a rebuilt host sharing the same observability
// bundle, and checks the crash/replay accounting: one crashed instance,
// one completed instance, and journal.replays equal to the replayed
// activity spans in the trace.
func TestObservabilityJournalReplayCounters(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	env := NewEnvironment(w)
	o := env.EnableObservability(nil)
	col := obsv.NewCollector()
	o.T().AddSink(col)

	dir := t.TempDir()
	rec := openJournal(t, dir)
	plan := &chaos.CrashPlan{Point: journal.CrashAfterEffect, Activity: "invoke", AtEffect: 2}
	chaos.Crash(rec, plan)
	env.Engine.AttachJournal(rec)

	err := env.Run(StackBIS, ResilienceConfig{})
	if !journal.IsCrash(err) {
		t.Fatalf("crash run: want a crash error, got %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	m := o.M()
	if got := m.Counter("engine.instances.crashed").Value(); got != 1 {
		t.Fatalf("engine.instances.crashed = %d, want 1", got)
	}
	insts := col.ByKind(obsv.KindInstance)
	if len(insts) != 1 || insts[0].Outcome != obsv.OutcomeCrashed {
		t.Fatalf("crash run instance spans = %v, want one with outcome %q", insts, obsv.OutcomeCrashed)
	}

	// Recover on a rebuilt host: the Rebuild keeps the same bundle, so
	// counters and spans accumulate across the crash/recover boundary.
	rec2 := openJournal(t, dir)
	defer rec2.Close()
	inflight := rec2.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("%d in-flight instances, want 1", len(inflight))
	}
	memos := inflight[0].MemoCount()
	if memos == 0 {
		t.Fatal("crashed instance journaled no effects — nothing to replay")
	}

	host := env.Rebuild()
	host.Engine.AttachJournal(rec2)
	d, err := host.Engine.Deploy(host.BuildFigure4BISResilient(ResilienceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(rec2, map[string]*engine.Deployment{"Figure4": d}); err != nil {
		t.Fatalf("recovery: %v", err)
	}

	replays := m.Counter("journal.replays").Value()
	if replays != int64(memos) {
		t.Errorf("journal.replays = %d, want %d (every memoized effect replayed once)", replays, memos)
	}
	var replayed int
	for _, s := range col.ByKind(obsv.KindActivity) {
		if s.Outcome == obsv.OutcomeReplayed {
			replayed++
		}
	}
	if int64(replayed) != replays {
		t.Errorf("%d activity spans carry outcome %q, want %d (one per journal replay)",
			replayed, obsv.OutcomeReplayed, replays)
	}
	if got := m.Counter("engine.instances.completed").Value(); got != 1 {
		t.Errorf("engine.instances.completed = %d, want 1 after recovery", got)
	}
	insts = col.ByKind(obsv.KindInstance)
	if len(insts) != 2 {
		t.Fatalf("%d instance spans after recovery, want 2 (crashed + recovered)", len(insts))
	}
	var okInst int
	for _, s := range insts {
		if s.Outcome == obsv.OutcomeOK {
			okInst++
		}
	}
	if okInst != 1 {
		t.Errorf("%d instance spans ended OK, want exactly 1 (the recovered run)", okInst)
	}
}
