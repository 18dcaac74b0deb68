package chaos

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/journal"
	"wfsql/internal/resilience"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

var echo = wsbus.Operation{In: []string{"x"}, Out: []string{"echo"},
	Handler: func(in []string) ([]string, error) { return []string{in[0]}, nil }}

// TestFaultPlanWindows: panic window, slow window, fail window, then
// pass-through — in that deterministic order.
func TestFaultPlanWindows(t *testing.T) {
	bus := wsbus.New()
	bus.Register("svc", echo)
	p := NewFaultPlan(1)
	p.PanicFirst, p.SlowFirst, p.FailFirst = 1, 1, 1
	p.Delay = time.Millisecond
	if err := Inject(bus, "svc", p); err != nil {
		t.Fatal(err)
	}

	// Call 1: panic, recovered by the bus into a transient error.
	_, err := bus.Invoke("svc", wsbus.Message{"x": "a"})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("call 1: %v, want recovered panic", err)
	}
	if !wsbus.IsTransient(err) {
		t.Fatalf("recovered panic must be transient: %v", err)
	}
	// Call 2: slow fail.
	start := time.Now()
	_, err = bus.Invoke("svc", wsbus.Message{"x": "b"})
	if err == nil || time.Since(start) < p.Delay {
		t.Fatalf("call 2: %v after %v, want delayed fault", err, time.Since(start))
	}
	// Call 3: fast fail, transient.
	if _, err = bus.Invoke("svc", wsbus.Message{"x": "c"}); !wsbus.IsTransient(err) {
		t.Fatalf("call 3: %v, want transient fault", err)
	}
	// Call 4: pass-through.
	resp, err := bus.Invoke("svc", wsbus.Message{"x": "d"})
	if err != nil || resp["echo"] != "d" {
		t.Fatalf("call 4: %v %v", err, resp)
	}
	if p.Calls() != 4 || p.Injected() != 3 {
		t.Fatalf("plan counters calls=%d injected=%d", p.Calls(), p.Injected())
	}
	// Bus counters: 4 attempts (panicking/slow calls still count), 1 success.
	if bus.Attempts() != 4 || bus.Successes() != 1 || bus.Panics() != 1 {
		t.Fatalf("bus attempts=%d successes=%d panics=%d", bus.Attempts(), bus.Successes(), bus.Panics())
	}
}

// TestFaultPlanMatch: non-matching requests bypass injection entirely.
func TestFaultPlanMatch(t *testing.T) {
	bus := wsbus.New()
	bus.Register("svc", echo)
	p := NewFaultPlan(1)
	p.FailFirst = 1000
	p.Permanent = true
	p.Match = func(req map[string]string) bool { return req["x"] == "bad" }
	if err := Inject(bus, "svc", p); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Invoke("svc", wsbus.Message{"x": "good"}); err != nil {
		t.Fatalf("non-matching call failed: %v", err)
	}
	_, err := bus.Invoke("svc", wsbus.Message{"x": "bad"})
	if err == nil {
		t.Fatal("matching call should fail")
	}
	if tr, ok := wsbus.Classified(err); !ok || tr {
		t.Fatalf("want permanent classification, got %v", err)
	}
	if p.Calls() != 1 {
		t.Fatalf("plan counted %d calls, want 1 (only matching)", p.Calls())
	}
}

// TestFaultRateDeterminism: same seed, same verdict sequence.
func TestFaultRateDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		p := NewFaultPlan(seed)
		p.FailRate = 0.5
		h := p.Wrap(echo).Handler
		outcome := make([]bool, 20)
		for i := range outcome {
			_, err := h([]string{"v"})
			outcome[i] = err == nil
		}
		return outcome
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded fault sequence not reproducible at call %d", i)
		}
	}
	flipped := false
	c := run(43)
	for i := range a {
		if a[i] != c[i] {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("different seeds should produce different fault sequences")
	}
}

// TestSQLFaultPlanNthStatement: the DB-wide hook fails exactly the Nth
// matching statement, once, and the retry then succeeds.
func TestSQLFaultPlanNthStatement(t *testing.T) {
	db := sqldb.Open("chaosdb")
	db.MustExec("CREATE TABLE T (A INTEGER)")
	p := &SQLFaultPlan{Kinds: []string{"INSERT"}, FailNth: []int{2}}
	InstallSQL(db, p)
	defer InstallSQL(db, nil)

	if _, err := db.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatalf("insert 1: %v", err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (2)"); err == nil {
		t.Fatal("insert 2 should be injected with a fault")
	} else if !wsbus.IsTransient(err) {
		t.Fatalf("injected SQL fault should be transient: %v", err)
	}
	// Retry (statement #3) passes.
	if _, err := db.Exec("INSERT INTO T VALUES (2)"); err != nil {
		t.Fatalf("retried insert: %v", err)
	}
	res := db.MustExec("SELECT COUNT(*) FROM T")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("rows = %d, want 2 (no phantom effect from the failed statement)", n)
	}
	if p.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", p.Injected())
	}
}

// TestSQLFaultPlanFailsCommit: a commit fault aborts the transaction; the
// session can roll back and retry the whole unit of work.
func TestSQLFaultPlanFailsCommit(t *testing.T) {
	db := sqldb.Open("chaosdb")
	db.MustExec("CREATE TABLE T (A INTEGER)")
	p := &SQLFaultPlan{FailCommits: 1}
	InstallSQL(db, p)
	defer InstallSQL(db, nil)

	s := db.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("first commit should fail")
	}
	s.Rollback() // the atomic-sequence fault path
	if n, _ := db.MustExec("SELECT COUNT(*) FROM T").Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("rolled-back txn leaked %d rows", n)
	}
	// Retry the unit of work; the second commit passes.
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatalf("second commit: %v", err)
	}
	if n, _ := db.MustExec("SELECT COUNT(*) FROM T").Rows[0][0].AsInt(); n != 1 {
		t.Fatal("retried unit of work should be visible exactly once")
	}
}

// TestFaultySessionWrapper: the session wrapper applies the plan without a
// DB-wide hook.
func TestFaultySessionWrapper(t *testing.T) {
	db := sqldb.Open("chaosdb")
	db.MustExec("CREATE TABLE T (A INTEGER)")
	fs := WrapSession(db.Session(), &SQLFaultPlan{Kinds: []string{"INSERT"}, FailFirst: 1})
	if _, err := fs.Exec("INSERT INTO T VALUES (1)"); err == nil {
		t.Fatal("first insert through wrapper should fail")
	}
	if _, err := fs.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatalf("second insert: %v", err)
	}
	// Other sessions are unaffected.
	if _, err := db.Exec("INSERT INTO T VALUES (2)"); err != nil {
		t.Fatalf("direct session: %v", err)
	}
	res, err := fs.Query("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

// TestPlanWithRetryPolicy: an injected transient window is healed by a
// retry policy — the end-to-end contract the product layers rely on.
func TestPlanWithRetryPolicy(t *testing.T) {
	bus := wsbus.New()
	bus.Register("svc", echo)
	p := NewFaultPlan(1)
	p.PanicFirst, p.FailFirst = 1, 2
	if err := Inject(bus, "svc", p); err != nil {
		t.Fatal(err)
	}
	pol := resilience.NewPolicy(5, time.Microsecond)
	resp, err := resilience.Do(pol, resilience.Observer{}, func(n int) (wsbus.Message, error) {
		return bus.Invoke("svc", wsbus.Message{"x": "v"})
	})
	if err != nil || resp["echo"] != "v" {
		t.Fatalf("retry over chaos window failed: %v %v", err, resp)
	}
	if bus.Attempts() != 4 || bus.Successes() != 1 {
		t.Fatalf("attempts=%d successes=%d, want 4/1", bus.Attempts(), bus.Successes())
	}
}

// TestFaultPlanConcurrentUse pins the FaultPlan locking invariant: the
// plan's rand.Rand (and its counters) are only ever touched under the
// plan mutex, so a decorated service hammered from parallel workflow
// branches stays race-free. Run under -race, any unguarded rng access
// fails the build.
func TestFaultPlanConcurrentUse(t *testing.T) {
	p := NewFaultPlan(42)
	p.FailFirst = 5
	p.FailRate = 0.25 // force the rng path on every later call
	h := p.Wrap(echo).Handler

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _ = h([]string{"y"})
				_ = p.Calls()
				_ = p.Injected()
			}
		}()
	}
	wg.Wait()
	if got := p.Calls(); got != workers*perWorker {
		t.Fatalf("calls = %d, want %d (lost updates under concurrency)", got, workers*perWorker)
	}
	if p.Injected() < p.FailFirst {
		t.Fatalf("injected = %d, want >= %d", p.Injected(), p.FailFirst)
	}
}

// TestCrashPlanOneShot: a crash plan fires on exactly one matching
// check — the AtEffect-th — even when checks race from parallel
// branches.
func TestCrashPlanOneShot(t *testing.T) {
	p := &CrashPlan{Point: journal.CrashAfterEffect, Activity: "invoke", AtEffect: 3}
	inj := p.Injector()

	if inj(1, "invoke", journal.CrashBeforeJournal) {
		t.Fatal("fired on the wrong crash point")
	}
	if inj(1, "SQL2", journal.CrashAfterEffect) {
		t.Fatal("fired on the wrong activity")
	}
	var fired int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if inj(1, "invoke", journal.CrashAfterEffect) {
					atomic.AddInt32(&fired, 1)
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("crash plan fired %d times, want exactly 1", fired)
	}
	if !p.Fired() {
		t.Fatal("Fired() = false after firing")
	}
	if p.Seen() != 3 {
		t.Fatalf("Seen() = %d, want 3 (counting stops once fired)", p.Seen())
	}
}
