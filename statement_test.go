package wfsql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/host"
	"wfsql/internal/mswf"
	"wfsql/internal/orasoa"
	"wfsql/internal/sched"
	"wfsql/internal/sqldb"
)

// This file checks the statement boundary inside SQL activities, which all
// three products reach through host.Instance.SQL: an instance runs every
// statement on its own session per database, and that session carries
// the instance's budget.

// twoStatementRun deploys, on stack s, a process whose one activity runs
// two statements: BIS fills a result set reference (DROP, then CREATE …
// AS SELECT), WF runs a code activity with two INSERTs on the instance
// session, Oracle calls an XSQL page of two INSERTs.
func twoStatementRun(t *testing.T, env *Environment, s Stack) func(ctx context.Context) error {
	t.Helper()
	env.DB.MustExec("CREATE TABLE BudgetProbe (n INTEGER)")
	insert := func(sess *sqldb.Session, n int64) error {
		_, err := sess.Exec("INSERT INTO BudgetProbe VALUES (?)", sqldb.Int(n))
		return err
	}
	switch s.Name {
	case "BIS":
		d, err := env.Engine.Deploy(bis.NewProcess("TwoStatements").
			DataSourceVariable("DS", DataSourceName).
			ResultSetReference("SR").
			Body(bis.NewSQL("SQL", "DS", "SELECT ItemID FROM Orders").Into("SR")).
			Build())
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context) error { _, err := d.RunCtx(ctx, nil); return err }
	case "WF":
		root := mswf.NewCode("TwoStatements", func(c *mswf.Context) error {
			for n := int64(1); n <= 2; n++ {
				if err := c.SQL(env.DB, nil, func(sess *sqldb.Session) error { return insert(sess, n) }); err != nil {
					return err
				}
			}
			return nil
		})
		return func(ctx context.Context) error { _, err := env.Runtime.RunCtx(ctx, root, nil); return err }
	default:
		if err := env.Funcs.XSQL().RegisterPage("two", `<xsql:page>
			<xsql:dml>INSERT INTO BudgetProbe VALUES (1)</xsql:dml>
			<xsql:dml>INSERT INTO BudgetProbe VALUES (2)</xsql:dml>
		</xsql:page>`); err != nil {
			t.Fatal(err)
		}
		d, err := env.Engine.Deploy(orasoa.NewProcess("TwoStatements", env.Funcs).
			Variable("Status", "").
			Body(engine.NewAssign("Assign").Copy("ora:processXSQL('two')/rowsAffected", "Status")).
			Build())
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context) error { _, err := d.RunCtx(ctx, nil); return err }
	}
}

// TestBudgetStopsTheNextStatement: an instance whose budget is cancelled
// while its activity's first statement runs is stopped at the second
// statement, inside the activity, on every stack: the run fails with
// host.ErrBudgetExceeded and the database refused exactly one statement.
func TestBudgetStopsTheNextStatement(t *testing.T) {
	for _, s := range Stacks() {
		t.Run(s.Name, func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			run := twoStatementRun(t, env, s)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			env.DB.SetExecHook(func(string) error { once.Do(cancel); return nil })
			defer env.DB.SetExecHook(nil)

			err := run(ctx)
			if !errors.Is(err, host.ErrBudgetExceeded) || !errors.Is(err, sqldb.ErrBudgetExhausted) {
				t.Fatalf("run = %v, want host.ErrBudgetExceeded from the statement boundary", err)
			}
			if n := env.DB.DeadlineRefusals(); n != 1 {
				t.Errorf("%d statements refused for the budget, want 1 (the second)", n)
			}
		})
	}
}

// sessionProbeRun deploys, on stack s, a process that issues eight INSERTs
// into SessionProbe, each carrying the instance's label: BIS and WF as
// eight SQL activities, Oracle as four ora:processXSQL calls of a
// two-statement page. A pause follows each activity, so the instances on
// the pool's workers overlap.
func sessionProbeRun(t *testing.T, env *Environment, s Stack) func(ctx context.Context, label string) error {
	t.Helper()
	env.DB.MustExec("CREATE TABLE SessionProbe (inst VARCHAR, n INTEGER)")
	switch s.Name {
	case "BIS":
		var acts []engine.Activity
		for n := 1; n <= 8; n++ {
			acts = append(acts, bis.NewSQL(fmt.Sprintf("SQL%d", n), "DS",
				fmt.Sprintf("INSERT INTO SessionProbe VALUES (#inst#, %d)", n)), bpelPause(n))
		}
		d, err := env.Engine.Deploy(bis.NewProcess("SessionProbe").
			DataSourceVariable("DS", DataSourceName).
			Variable("inst", "").
			Body(engine.NewSequence("main", acts...)).
			Build())
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context, label string) error {
			_, err := d.RunCtx(ctx, map[string]string{"inst": label})
			return err
		}
	case "WF":
		var acts []mswf.Activity
		for n := 1; n <= 8; n++ {
			acts = append(acts, mswf.NewSQLDatabase(fmt.Sprintf("SQL%d", n), ConnString,
				fmt.Sprintf("INSERT INTO SessionProbe VALUES (@inst, %d)", n)).Param("@inst", "inst"),
				mswf.NewCode(fmt.Sprintf("pause%d", n), func(*mswf.Context) error { time.Sleep(probePause); return nil }))
		}
		root := mswf.NewSequence("main", acts...)
		return func(ctx context.Context, label string) error {
			_, err := env.Runtime.RunCtx(ctx, root, map[string]any{"inst": label})
			return err
		}
	default:
		if err := env.Funcs.XSQL().RegisterPage("probe", `<xsql:page>
			<xsql:dml>INSERT INTO SessionProbe VALUES ({@inst}, 1)</xsql:dml>
			<xsql:dml>INSERT INTO SessionProbe VALUES ({@inst}, 2)</xsql:dml>
		</xsql:page>`); err != nil {
			t.Fatal(err)
		}
		var acts []engine.Activity
		for n := 1; n <= 4; n++ {
			acts = append(acts, engine.NewAssign(fmt.Sprintf("Assign%d", n)).
				Copy("ora:processXSQL('probe', 'inst', $inst)/rowsAffected", "Status"), bpelPause(n))
		}
		d, err := env.Engine.Deploy(orasoa.NewProcess("SessionProbe", env.Funcs).
			Variable("inst", "").
			Variable("Status", "").
			Body(engine.NewSequence("main", acts...)).
			Build())
		if err != nil {
			t.Fatal(err)
		}
		return func(ctx context.Context, label string) error {
			_, err := d.RunCtx(ctx, map[string]string{"inst": label})
			return err
		}
	}
}

// probePause is how long a session probe pauses after each activity.
const probePause = 200 * time.Microsecond

// bpelPause is the n-th pause activity of a BPEL session probe.
func bpelPause(n int) engine.Activity {
	return engine.NewSnippet(fmt.Sprintf("pause%d", n), func(*engine.Ctx) error { time.Sleep(probePause); return nil })
}

// TestStatementsRunOnTheInstanceSession runs 8 instances on 4 pool
// workers per stack and reads the change stream: every statement an
// instance issues carries one session id, and a session's statements
// never interleave two instances, so no session was held by two live
// instances at once (a session may serve several instances in turn).
func TestStatementsRunOnTheInstanceSession(t *testing.T) {
	for _, s := range Stacks() {
		t.Run(s.Name, func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			run := sessionProbeRun(t, env, s)
			type stmt struct {
				session int64
				inst    string
			}
			var (
				mu    sync.Mutex
				stmts []stmt // in change-stream order
			)
			env.DB.SetChangeSink(func(c sqldb.Change) {
				if c.Kind != "INSERT" {
					return
				}
				for _, v := range c.Params { // the label; the number may be a slot too
					if v.K == sqldb.KindString {
						mu.Lock()
						stmts = append(stmts, stmt{c.Session, v.S})
						mu.Unlock()
					}
				}
			})
			defer env.DB.SetChangeSink(nil)

			const instances = 8
			pool := sched.NewPool(sched.PoolConfig{Workers: 4, QueueBound: instances})
			for i := 0; i < instances; i++ {
				label := fmt.Sprintf("inst%d", i)
				job := sched.CtxJob{Stack: s.Name, Name: label,
					Run: func(ctx context.Context) error { return run(ctx, label) }}
				if err := pool.Submit(context.Background(), job); err != nil {
					t.Fatal(err)
				}
			}
			if rep := pool.Drain(); rep.Completed != instances {
				t.Fatalf("%d of %d instances completed: %+v", rep.Completed, instances, rep.Results)
			}

			if len(stmts) != instances*8 {
				t.Fatalf("%d INSERTs captured, want %d", len(stmts), instances*8)
			}
			sessionOf := map[string]int64{}
			last := map[int64]string{} // the instance a session served last
			done := map[string]bool{}  // instances a session stopped serving
			for _, st := range stmts {
				if sid, ok := sessionOf[st.inst]; ok && sid != st.session {
					t.Fatalf("instance %s issued statements on sessions %d and %d", st.inst, sid, st.session)
				}
				sessionOf[st.inst] = st.session
				if prev, ok := last[st.session]; ok && prev != st.inst {
					done[prev] = true
				}
				if done[st.inst] {
					t.Fatalf("session %d served instance %s again after another instance", st.session, st.inst)
				}
				last[st.session] = st.inst
			}
		})
	}
}
