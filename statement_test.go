package wfsql

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wfsql/internal/bis"
	"wfsql/internal/dataset"
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

// statementRuns are the runs the statement-boundary tests drive: one per
// stack, and WF's Synchronization pattern — a code activity whose dataset
// adapter Fills and Updates.
var statementRuns = []string{StackBIS.Name, StackWF.Name, StackOracle.Name, "WF adapter"}

// twoStatementRun deploys, for run name, a process whose one activity
// runs two statements: BIS fills a result set reference (DROP, then
// CREATE … AS SELECT), WF runs a code activity with two INSERTs on the
// instance session, Oracle calls an XSQL page of two INSERTs, and WF's
// adapter Fills, then Updates a row it changed.
func twoStatementRun(t *testing.T, env *Environment, name string) func(ctx context.Context) error {
	t.Helper()
	env.DB.MustExec("CREATE TABLE BudgetProbe (n INTEGER)")
	insert := func(sess *sqldb.Session, n int64) error {
		_, err := sess.Exec("INSERT INTO BudgetProbe VALUES (?)", sqldb.Int(n))
		return err
	}
	switch name {
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
	case "WF adapter":
		root := mswf.NewCode("FillAndUpdate", func(c *mswf.Context) error {
			a, err := mswf.NewDataAdapter(c, ConnString, "SELECT OrderID, Quantity FROM Orders", "Orders", "OrderID")
			if err != nil {
				return err
			}
			ds := dataset.New()
			if _, err := a.Fill(ds, "Orders"); err != nil {
				return err
			}
			row, err := ds.Table("Orders").Row(0)
			if err != nil {
				return err
			}
			if err := row.Set("Quantity", sqldb.Int(99)); err != nil {
				return err
			}
			_, err = a.Update(ds, "Orders")
			return err
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
	for _, name := range statementRuns {
		t.Run(name, func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			run := twoStatementRun(t, env, name)
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

// sessionProbeRun deploys, for run name, a process that issues eight
// INSERTs into SessionProbe, each carrying the instance's label: BIS and
// WF as eight SQL activities, Oracle as four ora:processXSQL calls of a
// two-statement page, WF's adapter as two Updates of four added rows
// each. A pause follows each activity, so the instances on the pool's
// workers overlap.
func sessionProbeRun(t *testing.T, env *Environment, name string) func(ctx context.Context, label string) error {
	t.Helper()
	env.DB.MustExec("CREATE TABLE SessionProbe (inst VARCHAR, n INTEGER)")
	switch name {
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
	case "WF adapter":
		var acts []mswf.Activity
		for half := 0; half < 2; half++ {
			acts = append(acts, mswf.NewCode(fmt.Sprintf("sync%d", half), func(c *mswf.Context) error {
				a, err := mswf.NewDataAdapter(c, ConnString, "SELECT inst, n FROM SessionProbe WHERE inst = ?", "SessionProbe", "inst", "n")
				if err != nil {
					return err
				}
				label := sqldb.Str(c.GetString("inst"))
				ds := dataset.New()
				if _, err := a.Fill(ds, "Probe", label); err != nil {
					return err
				}
				for n := 1; n <= 4; n++ {
					if _, err := ds.Table("Probe").AddRow(label, sqldb.Int(int64(4*half+n))); err != nil {
						return err
					}
				}
				_, err = a.Update(ds, "Probe")
				return err
			}), mswf.NewCode(fmt.Sprintf("pause%d", half), func(*mswf.Context) error { time.Sleep(probePause); return nil }))
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
	for _, name := range statementRuns {
		t.Run(name, func(t *testing.T) {
			env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
			run := sessionProbeRun(t, env, name)
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
				job := sched.CtxJob{Stack: name, Name: label,
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

// TestAdapterUpdateExcludesParallelBranches runs WF's Synchronization
// pattern and then an INSERT, in sequence, in one instance: both run on
// the instance's session. The adapter's Update writes 2 000 rows in its
// transaction and fails on a duplicate key at the last, and rolls back;
// the handler notes the failure and the workflow goes on. The INSERT then
// commits on the same session, outside the rolled-back transaction, so
// its row stays and none of the Update's does.
func TestAdapterUpdateExcludesParallelBranches(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 12, Items: 3, ApprovalPercent: 100, Seed: 5})
	const added = 2000
	env.DB.MustExec("CREATE TABLE SyncProbe (k INTEGER PRIMARY KEY)")
	env.DB.MustExec("INSERT INTO SyncProbe VALUES (?)", sqldb.Int(added)) // the key the last added row repeats
	env.DB.MustExec("CREATE TABLE Beside (n INTEGER)")
	var updateSession, insertSession int64
	env.DB.SetChangeSink(func(c sqldb.Change) {
		if strings.Contains(c.SQL, "Beside") {
			insertSession = c.Session
		}
	})
	defer env.DB.SetChangeSink(nil)

	update := mswf.NewCode("Update", func(c *mswf.Context) error {
		a, err := mswf.NewDataAdapter(c, ConnString, "SELECT k FROM SyncProbe WHERE k < 0", "SyncProbe", "k")
		if err != nil {
			return err
		}
		ds := dataset.New()
		if _, err := a.Fill(ds, "Probe"); err != nil {
			return err
		}
		for k := 0; k <= added; k++ {
			if _, err := ds.Table("Probe").AddRow(sqldb.Int(int64(k))); err != nil {
				return err
			}
		}
		run := a.Run
		a.Run = func(op func(*sqldb.Session) error) error {
			return run(func(s *sqldb.Session) error { updateSession = s.ID(); return op(s) })
		}
		_, err = a.Update(ds, "Probe")
		c.Set("updateErr", fmt.Sprint(err))
		return nil
	})
	root := mswf.NewSequence("seq", update, mswf.NewSQLDatabase("Insert", ConnString, "INSERT INTO Beside VALUES (1)"))
	c, err := env.Runtime.RunCtx(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.GetString("updateErr"); !strings.Contains(got, "unique constraint") {
		t.Fatalf("Update = %s, want the duplicate key", got)
	}
	if updateSession == 0 || insertSession != updateSession {
		t.Fatalf("the Update ran on session %d, the INSERT on %d: want one instance session", updateSession, insertSession)
	}
	for table, want := range map[string]int64{"SyncProbe": 1, "Beside": 1} {
		if n := env.DB.MustExec("SELECT COUNT(*) FROM " + table).Rows[0][0].I; n != want {
			t.Errorf("%s holds %d rows, want %d", table, n, want)
		}
	}
}

// bypassSites are the calls of (*sqldb.DB).Session, Exec, MustExec or
// ExecScript the product layers may make outside host.Instance.SQL —
// statements that are not an instance's — as file:function:method.
var bypassSites = map[string]string{
	"internal/bis/builder.go:runLifecycleStatement:Session": "BIS preparation and cleanup statements manage entities outside the process transaction, one fresh session each",
	"internal/dataset/adapter.go:run:Session":               "an adapter built without a runner (outside a workflow instance) runs each unit on a fresh session",
}

// TestOnlyDeploySitesBypassTheInstanceSession type-checks the non-test
// files of the packages that run instance statements and fails on any
// call of (*sqldb.DB).Session, Exec, MustExec or ExecScript that is not a
// site of bypassSites: every other statement runs on the instance's
// session, through host.Instance.SQL.
func TestOnlyDeploySitesBypassTheInstanceSession(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	seen := map[string]bool{}
	for _, pkg := range []string{"bis", "mswf", "orasoa", "engine", "host", "dataset"} {
		dir := filepath.Join("internal", pkg)
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := conf.Check("wfsql/"+dir, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || info.Selections[sel] == nil {
						return true
					}
					recv, ok := info.Selections[sel].Recv().(*types.Pointer)
					if !ok || recv.Elem().String() != "wfsql/internal/sqldb.DB" {
						return true
					}
					switch sel.Sel.Name {
					case "Session", "Exec", "MustExec", "ExecScript":
						site := fmt.Sprintf("%s:%s:%s", filepath.ToSlash(fset.File(fn.Pos()).Name()), fn.Name.Name, sel.Sel.Name)
						if _, ok := bypassSites[site]; !ok {
							t.Errorf("%s: %s calls (*sqldb.DB).%s outside host.Instance.SQL", fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
						}
						seen[site] = true
					}
					return true
				})
			}
		}
	}
	for site := range bypassSites {
		if !seen[site] {
			t.Errorf("allowed site %s is gone: take it off the list", site)
		}
	}
}
