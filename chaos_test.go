package wfsql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"wfsql/internal/bis"
	"wfsql/internal/chaos"
	"wfsql/internal/engine"
	"wfsql/internal/obsv"
	"wfsql/internal/resilience"
)

// This file is the chaos matrix the resilience layer is proved with: the
// paper's running example (Figures 4, 6, 8) executed on all three product
// stacks under injected service faults, SQL faults, and latency, asserting
// that the OrderConfirmations table converges row-for-row to the fault-free
// baseline — exactly-once visible effects despite retries.

// quickPolicy is a retry policy with microsecond backoff for tests.
func quickPolicy(attempts int) *resilience.Policy {
	return resilience.NewPolicy(attempts, time.Microsecond)
}

// confirmationRows returns the OrderConfirmations content as sorted
// "ItemID|Quantity|Confirmation" strings.
func confirmationRows(t *testing.T, env *Environment) []string {
	t.Helper()
	res := env.DB.MustExec("SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations")
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprintf("%s|%s|%s", r[0].String(), r[1].String(), r[2].String()))
	}
	sort.Strings(rows)
	return rows
}

// baselineRows runs one plain instance of the stack on a fresh,
// fault-free environment with the same workload and returns its
// confirmation rows.
func baselineRows(t *testing.T, w Workload, s Stack) []string {
	t.Helper()
	env := NewEnvironment(w)
	if err := env.Run(s, ResilienceConfig{}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return confirmationRows(t, env)
}

// injectSupplierFaults puts the fault plan in front of the supplier
// service where the stack reaches it: the BPEL stacks invoke it over the
// bus, WF calls its registered service directly.
func injectSupplierFaults(t *testing.T, env *Environment, s Stack, plan *chaos.FaultPlan) {
	t.Helper()
	if s.Name == "WF" {
		env.Runtime.RegisterService("OrderFromSupplier", plan.WrapService(
			func(req map[string]string) (map[string]string, error) {
				return env.Supplier.Handle(req)
			}))
		return
	}
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chaosWindow is the transient fault window used by the convergence tests:
// one panic, one slow-fail, two fast fails — then the dependency heals.
func chaosWindow() *chaos.FaultPlan {
	p := chaos.NewFaultPlan(7)
	p.PanicFirst = 1
	p.SlowFirst = 1
	p.Delay = time.Millisecond
	p.FailFirst = 2
	return p
}

// TestChaosTransientServiceFaultsConverge injects a transient fault window
// into the supplier service and checks that each product stack, with a
// retry policy on the invoke, produces exactly the fault-free baseline.
func TestChaosTransientServiceFaultsConverge(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	cfg := ResilienceConfig{Invoke: quickPolicy(8)}

	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			want := baselineRows(t, w, stack)
			env := NewEnvironment(w)
			plan := chaosWindow()
			injectSupplierFaults(t, env, stack, plan)
			p, err := stack.Prepare(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(context.Background()); err != nil {
				t.Fatalf("resilient run under chaos: %v", err)
			}
			if got := confirmationRows(t, env); !sameRows(got, want) {
				t.Fatalf("rows diverged from baseline:\n got %v\nwant %v", got, want)
			}
			if plan.Injected() == 0 {
				t.Fatal("fault plan injected nothing — test proved nothing")
			}
			if n := p.DeadLetters.Len(); n != 0 {
				t.Fatalf("transient window should not dead-letter, got %d", n)
			}
		})
	}
}

// TestChaosSQLFaultLongRunningRetries injects a transient fault into the
// SQL statement stream. In long-running processes every statement
// autocommits, so a per-statement retry policy heals the fault and the
// table still converges to the baseline.
func TestChaosSQLFaultLongRunningRetries(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	cfg := ResilienceConfig{SQL: quickPolicy(4)}

	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			want := baselineRows(t, w, stack)
			env := NewEnvironment(w)
			plan := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{1, 3}}
			chaos.InstallSQL(env.DB, plan)
			defer chaos.InstallSQL(env.DB, nil)
			if err := env.Run(stack, cfg); err != nil {
				t.Fatalf("resilient run under SQL chaos: %v", err)
			}
			if got := confirmationRows(t, env); !sameRows(got, want) {
				t.Fatalf("rows diverged from baseline:\n got %v\nwant %v", got, want)
			}
			if plan.Injected() != 2 {
				t.Fatalf("injected = %d, want 2", plan.Injected())
			}
		})
	}
}

// TestChaosSQLRetryPolicyDoesNotOutliveItsRun: the Oracle stack's SQL
// retry policy is installed on the environment-wide extension-function
// library, so a zero-config Figure 8 prepared after a resilient one must
// clear it — a plain run faults on an injected SQL error exactly as it
// does on a fresh environment, instead of silently retrying. Retries are
// read from the sql.retries counter.
func TestChaosSQLRetryPolicyDoesNotOutliveItsRun(t *testing.T) {
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	plainRunUnderFault := func(env *Environment) (retries int64, err error) {
		plan := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{1}}
		chaos.InstallSQL(env.DB, plan)
		defer chaos.InstallSQL(env.DB, nil)
		ctr := env.Observability().M().Counter("sql.retries")
		before := ctr.Value()
		err = env.Run(StackOracle, ResilienceConfig{})
		if plan.Injected() != 1 {
			t.Fatalf("injected = %d, want 1", plan.Injected())
		}
		return ctr.Value() - before, err
	}

	fresh := NewEnvironment(w)
	fresh.EnableObservability(nil)
	if _, err := plainRunUnderFault(fresh); err == nil {
		t.Fatal("fresh environment: a plain run must fault on the injected INSERT error")
	}

	env := NewEnvironment(w)
	env.EnableObservability(nil)
	if err := env.Run(StackOracle, ResilienceConfig{SQL: quickPolicy(4)}); err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	env.ResetConfirmations()
	retries, err := plainRunUnderFault(env)
	if err == nil || retries != 0 {
		t.Fatalf("plain run after a resilient one: err = %v with %d retries — the earlier run's SQL retry policy is still installed", err, retries)
	}
}

// TestChaosSQLFaultShortRunningAllOrNothing is the transaction-mode
// counterpart: in a short-running process the statements share one
// transaction, so the retry policy is suppressed (retry=suppressed on the
// SQL activities' spans, see TestChaosReliabilityNotes), the fault
// propagates, and the rollback leaves zero confirmations — all-or-nothing.
func TestChaosSQLFaultShortRunningAllOrNothing(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3})
	p := env.BuildFigure4BISResilient(ResilienceConfig{SQL: quickPolicy(4)})
	p.Mode = engine.ShortRunning

	plan := &chaos.SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{2}, Permanent: true}
	chaos.InstallSQL(env.DB, plan)
	defer chaos.InstallSQL(env.DB, nil)

	d, err := env.Engine.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err == nil {
		t.Fatal("short-running process should fault on the injected SQL error")
	}
	if n := env.ConfirmationCount(); n != 0 {
		t.Fatalf("rollback leaked %d confirmations (first insert committed despite fault)", n)
	}
}

// TestChaosLatencyPerAttemptTimeout: a hung supplier (slow-fail window) is
// abandoned by the per-attempt timeout and the retry converges without
// waiting out the injected delay.
func TestChaosLatencyPerAttemptTimeout(t *testing.T) {
	w := Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 1}
	want := baselineRows(t, w, StackBIS)

	env := NewEnvironment(w)
	plan := chaos.NewFaultPlan(1)
	plan.SlowFirst = 2
	plan.Delay = 30 * time.Second // would stall the test without a timeout
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}
	pol := quickPolicy(5)
	pol.PerAttemptTimeout = 5 * time.Millisecond

	start := time.Now()
	if err := env.Run(StackBIS, ResilienceConfig{Invoke: pol}); err != nil {
		t.Fatalf("resilient run under latency chaos: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("per-attempt timeout did not cut the injected delay (took %v)", elapsed)
	}
	if got := confirmationRows(t, env); !sameRows(got, want) {
		t.Fatalf("rows diverged from baseline:\n got %v\nwant %v", got, want)
	}
}

// TestChaosPermanentFaultDeadLettersAndDegrades targets one item type with
// a permanent fault: the process completes in a degraded state (the
// confirmation records DEADLETTERED:<item>), every other item confirms
// normally, and the engine's dead-letter log holds exactly the failed key.
func TestChaosPermanentFaultDeadLettersAndDegrades(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 1})
	const victim = "item001"
	plan := chaos.NewFaultPlan(1)
	plan.FailFirst = 1 << 30
	plan.Permanent = true
	plan.Match = func(req map[string]string) bool { return req["ItemID"] == victim }
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}

	cfg := ResilienceConfig{Invoke: quickPolicy(3), DeadLetterAbsorb: true}
	if err := env.Run(StackBIS, cfg); err != nil {
		t.Fatalf("degraded completion expected, got fault: %v", err)
	}
	if n := env.ConfirmationCount(); n != env.ApprovedItemTypes() {
		t.Fatalf("confirmations = %d, want %d (degraded rows included)", n, env.ApprovedItemTypes())
	}
	res := env.DB.MustExec("SELECT ItemID, Confirmation FROM OrderConfirmations ORDER BY ItemID")
	for _, row := range res.Rows {
		item, conf := row[0].S, row[1].S
		if item == victim {
			if conf != "DEADLETTERED:"+victim {
				t.Fatalf("victim row confirmation %q", conf)
			}
		} else if !strings.HasPrefix(conf, "CONFIRMED:") {
			t.Fatalf("healthy item %s has confirmation %q", item, conf)
		}
	}
	if keys := env.Engine.DeadLetters.Keys(); len(keys) != 1 || keys[0] != victim {
		t.Fatalf("dead-letter keys = %v, want [%s]", keys, victim)
	}
	dl := env.Engine.DeadLetters.Entries()[0]
	if dl.Reason != resilience.ReasonPermanent {
		t.Fatalf("dead letter reason %q, want %q (permanent faults stop retrying early)", dl.Reason, resilience.ReasonPermanent)
	}
	if dl.Attempts != 1 {
		t.Fatalf("permanent fault burned %d attempts, want 1", dl.Attempts)
	}
}

// TestChaosBreakerOpensUnderPersistentFailure: with the supplier down hard,
// the circuit breaker opens after its failure threshold and subsequent
// invokes are refused without touching the bus; dead-lettering absorbs the
// failures so the process still completes (degraded). The transition is
// noted on the invoke's span (TestChaosReliabilityNotes).
func TestChaosBreakerOpensUnderPersistentFailure(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 30, Items: 6, ApprovalPercent: 100, Seed: 9})
	plan := chaos.NewFaultPlan(1)
	plan.FailFirst = 1 << 30 // never heals
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}

	br := resilience.NewBreaker(3, time.Hour) // opens after 3 consecutive failures, never half-opens in-test
	cfg := ResilienceConfig{Invoke: quickPolicy(2), Breaker: br, DeadLetterAbsorb: true}
	d, err := env.Engine.Deploy(env.BuildFigure4BISResilient(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatalf("absorbed failures should not fault the process: %v", err)
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker state %v, want open", br.State())
	}
	// Every item dead-lettered, every degraded row recorded.
	if got, want := env.Engine.DeadLetters.Len(), env.ApprovedItemTypes(); got != want {
		t.Fatalf("dead letters = %d, want %d", got, want)
	}
	if n := env.ConfirmationCount(); n != env.ApprovedItemTypes() {
		t.Fatalf("confirmations = %d, want %d", n, env.ApprovedItemTypes())
	}
	// The breaker cut the call volume: once open, attempts are refused
	// before reaching the bus.
	maxAttempts := int64(env.ApprovedItemTypes() * 2)
	if env.Bus.Attempts() >= maxAttempts {
		t.Fatalf("bus attempts = %d, want < %d (breaker should refuse calls once open)", env.Bus.Attempts(), maxAttempts)
	}
}

// TestChaosReliabilityNotes: what the resilience layer decided about an
// activity — a suppressed retry, its attempts and backoff waits, a breaker
// transition, a dead letter — is noted on that activity's span and on no
// other span, in one vocabulary for both engines.
func TestChaosReliabilityNotes(t *testing.T) {
	vocabulary := []string{"retry", "attempt", "backoff", "breaker", "deadletter_key", "memos"}
	w := Workload{Orders: 18, Items: 4, ApprovalPercent: 100, Seed: 3}
	const victim = "item001"
	run := func(s Stack, cfg ResilienceConfig) func(*testing.T, *Environment) error {
		return func(_ *testing.T, env *Environment) error { return env.Run(s, cfg) }
	}
	transient := func(s Stack) func(*testing.T, *Environment) {
		return func(t *testing.T, env *Environment) { injectSupplierFaults(t, env, s, chaosWindow()) }
	}
	permanent := func(s Stack) func(*testing.T, *Environment) {
		return func(t *testing.T, env *Environment) {
			plan := chaos.NewFaultPlan(1)
			plan.FailFirst = 1 << 30
			plan.Permanent = true
			plan.Match = func(req map[string]string) bool { return req["ItemID"] == victim }
			injectSupplierFaults(t, env, s, plan)
		}
	}
	sqlFaults := func(plan *chaos.SQLFaultPlan) func(*testing.T, *Environment) {
		return func(t *testing.T, env *Environment) {
			chaos.InstallSQL(env.DB, plan)
			t.Cleanup(func() { chaos.InstallSQL(env.DB, nil) })
		}
	}
	for _, tc := range []struct {
		name  string
		fault func(*testing.T, *Environment)
		run   func(*testing.T, *Environment) error
		fails bool
		on    []string          // the only activities whose spans carry notes
		notes map[string]string // every note key expected, with a value one span must carry ("" = any)
	}{
		{name: "BIS/short-running-suppressed",
			fault: sqlFaults(&chaos.SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{2}, Permanent: true}),
			run: func(t *testing.T, env *Environment) error {
				p := env.BuildFigure4BISResilient(ResilienceConfig{SQL: quickPolicy(4)})
				p.Mode = engine.ShortRunning
				d, err := env.Engine.Deploy(p)
				if err != nil {
					t.Fatal(err)
				}
				_, err = d.Run(nil)
				return err
			},
			fails: true, on: []string{"SQL1", "SQL2"}, notes: map[string]string{"retry": "suppressed"}},
		{name: "BIS/invoke-transient", fault: transient(StackBIS),
			run: run(StackBIS, ResilienceConfig{Invoke: quickPolicy(8)}),
			on:  []string{"invoke"}, notes: map[string]string{"attempt": "", "backoff": ""}},
		{name: "BIS/breaker-opens",
			fault: func(t *testing.T, env *Environment) {
				plan := chaos.NewFaultPlan(1)
				plan.FailFirst = 1 << 30
				injectSupplierFaults(t, env, StackBIS, plan)
			},
			run: run(StackBIS, ResilienceConfig{Invoke: quickPolicy(2), Breaker: resilience.NewBreaker(3, time.Hour), DeadLetterAbsorb: true}),
			on:  []string{"invoke"}, notes: map[string]string{"attempt": "", "backoff": "", "breaker": "closed->open", "deadletter_key": ""}},
		{name: "BIS/dead-letter", fault: permanent(StackBIS),
			run: run(StackBIS, ResilienceConfig{Invoke: quickPolicy(3), DeadLetterAbsorb: true}),
			on:  []string{"invoke"}, notes: map[string]string{"attempt": "", "deadletter_key": victim}},
		{name: "WF/sql-retry", fault: sqlFaults(&chaos.SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{1, 3}}),
			run: run(StackWF, ResilienceConfig{SQL: quickPolicy(4)}),
			on:  []string{"SQLDatabase1", "SQLDatabase2"}, notes: map[string]string{"attempt": "2/4", "backoff": ""}},
		{name: "WF/dead-letter", fault: permanent(StackWF),
			run: run(StackWF, ResilienceConfig{Invoke: quickPolicy(3), DeadLetterAbsorb: true}),
			on:  []string{"invoke"}, notes: map[string]string{"attempt": "", "deadletter_key": victim}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnvironment(w)
			col := obsv.NewCollector()
			o := obsv.New()
			o.Tracer.AddSink(col)
			env.EnableObservability(o)
			tc.fault(t, env)
			if err := tc.run(t, env); (err != nil) != tc.fails {
				t.Fatalf("run: %v, want failure %v", err, tc.fails)
			}
			seen := map[string]bool{}
			for _, s := range col.Spans() {
				for _, k := range vocabulary {
					v, ok := s.Attrs[k]
					if !ok {
						continue
					}
					want, expected := tc.notes[k]
					switch {
					case !expected:
						t.Errorf("unexpected note %s=%s on %s %q", k, v, s.Kind, s.Name)
					case s.Kind != obsv.KindActivity || !slices.Contains(tc.on, s.Name):
						t.Errorf("%s=%s on %s %q, want it only on %v", k, v, s.Kind, s.Name, tc.on)
					case want == "" || v == want:
						seen[k] = true
					}
					if k == "deadletter_key" && s.Outcome != obsv.OutcomeDeadLettered {
						t.Errorf("span %q notes deadletter_key=%s with outcome %q, want %q", s.Name, v, s.Outcome, obsv.OutcomeDeadLettered)
					}
					if _, _, ok := strings.Cut(v, "/"); k == "attempt" && !ok {
						t.Errorf("attempt=%s on %q, want <n>/<max>", v, s.Name)
					}
					if _, err := time.ParseDuration(v); k == "backoff" && err != nil {
						t.Errorf("backoff=%s on %q: %v", v, s.Name, err)
					}
				}
			}
			for k, v := range tc.notes {
				if !seen[k] {
					t.Errorf("no span of %v carries %s=%q:\n%s", tc.on, k, v, col.TreeString())
				}
			}
		})
	}
}

// TestChaosPanicDoesNotKillEngine: a panicking service handler is recovered
// into a transient fault; without a retry policy the process faults cleanly
// (state faulted, fault recorded) instead of crashing the engine.
func TestChaosPanicDoesNotKillEngine(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 1})
	plan := chaos.NewFaultPlan(1)
	plan.PanicFirst = 1
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}
	d, err := env.Engine.Deploy(env.BuildFigure4BIS())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Run(nil)
	if err == nil {
		t.Fatal("unretried panic should fault the instance")
	}
	if inst.State() != engine.StateFaulted {
		t.Fatalf("instance state %v, want faulted", inst.State())
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("fault should carry the recovered panic: %v", err)
	}
	if env.Bus.Panics() != 1 {
		t.Fatalf("bus panic counter = %d, want 1", env.Bus.Panics())
	}
}

// TestChaosSoak runs the three stacks repeatedly under seeded random
// service fault rates, asserting convergence every time. Skipped with
// -short; the ci target runs it.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	w := Workload{Orders: 24, Items: 5, ApprovalPercent: 100, Seed: 11}
	cfg := ResilienceConfig{Invoke: quickPolicy(10), SQL: quickPolicy(10)}

	base := map[string][]string{}
	for _, stack := range Stacks() {
		base[stack.Name] = baselineRows(t, w, stack)
	}

	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, stack := range Stacks() {
				env := NewEnvironment(w)
				plan := chaos.NewFaultPlan(seed)
				plan.FailRate = 0.3
				injectSupplierFaults(t, env, stack, plan)
				if err := env.Run(stack, cfg); err != nil {
					t.Fatalf("%s seed %d: %v", stack.Name, seed, err)
				}
				if got, want := confirmationRows(t, env), base[stack.Name]; !sameRows(got, want) {
					t.Fatalf("%s seed %d diverged:\n got %v\nwant %v", stack.Name, seed, got, want)
				}
			}
		})
	}
}

// TestAtomicSequenceRetryHealsCommitFault: the unit-of-work retry on an
// atomic SQL sequence rolls back the failed attempt and replays the whole
// sequence, leaving exactly one committed copy — the transaction-boundary
// recovery that per-statement retries defer to.
func TestAtomicSequenceRetryHealsCommitFault(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 1})
	plan := &chaos.SQLFaultPlan{FailCommits: 1}
	chaos.InstallSQL(env.DB, plan)
	defer chaos.InstallSQL(env.DB, nil)

	seq := bis.NewAtomicSequence("unitOfWork",
		bis.NewSQL("ins1", "DS", `INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES ('a', 1, 'x')`),
		bis.NewSQL("ins2", "DS", `INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation) VALUES ('b', 2, 'y')`),
	).WithRetry(quickPolicy(3))

	p := bis.NewProcess("AtomicRetry").
		DataSourceVariable("DS", DataSourceName).
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		Body(seq).
		Build()
	d, err := env.Engine.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err != nil {
		t.Fatalf("retried unit of work should commit: %v", err)
	}
	if n := env.ConfirmationCount(); n != 2 {
		t.Fatalf("confirmations = %d, want 2 (one committed copy, no replay duplicates)", n)
	}
	if plan.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", plan.Injected())
	}
}
