package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Entry-point equivalence: the same figure-shaped statement mix executed
// through Exec (plan cache), Prepare+Exec (no cache) and one ExecScript
// of the rendered script must be indistinguishable — same results, same
// error text, same table contents, same change stream. There is one
// statement path; the entry points only differ in how they resolve text
// to a plan.

// equivStep is one statement of the mix. Only SELECT/INSERT/UPDATE/DELETE
// steps carry params: for those the normalizer makes bound and inlined
// values comparable; everything else is written with literals.
type equivStep struct {
	sql    string
	params []Value
}

// equivMix generates a seeded mix over orders/audit: DDL, literal and
// bound IUD, bound reads (a scan, a hash join, an index probe with ORDER
// BY … LIMIT), explicit transactions ended by COMMIT, ROLLBACK, or a
// native procedure rolling back its child session, a SQL-bodied CALL, a
// native CALL that issues SQL, and statements that fail without effect
// (duplicate key, transaction control out of place).
func equivMix(seed int64) []equivStep {
	rng := rand.New(rand.NewSource(seed))
	step := func(sql string, params ...Value) equivStep { return equivStep{sql, params} }
	mix := []equivStep{
		step("CREATE TABLE orders (id INTEGER PRIMARY KEY, item VARCHAR, qty INTEGER)"),
		step("CREATE TABLE audit (id INTEGER, note VARCHAR)"),
		step("CREATE INDEX orders_item ON orders (item)"),
	}
	for id := range 12 {
		mix = append(mix, step(fmt.Sprintf("CREATE PROCEDURE restock%[1]d () AS 'UPDATE orders SET qty = qty + %[2]d WHERE id = %[1]d; INSERT INTO audit VALUES (%[1]d, ''restock''); SELECT qty FROM orders WHERE id = %[1]d'", id, 3+id%5)))
	}
	items := []string{"bolt", "nut", "it's", "washer; x"}
	iud := func() equivStep {
		id, qty := int64(rng.Intn(12)), int64(rng.Intn(50))
		item := items[rng.Intn(len(items))]
		switch rng.Intn(7) {
		case 0:
			return step(fmt.Sprintf("INSERT INTO orders VALUES (%d, %s, %d)", id, Str(item).SQLLiteral(), qty))
		case 1:
			return step("INSERT INTO orders (id, item, qty) VALUES (?, ?, ?)", Int(id), Str(item), Int(qty))
		case 2:
			return step("UPDATE orders SET qty = ? WHERE item = ?", Int(qty), Str(item))
		case 3:
			return step(fmt.Sprintf("UPDATE orders SET qty = qty + 1 WHERE id = %d", id))
		case 4:
			return step("DELETE FROM orders WHERE id = ? AND qty < 25", Int(id))
		case 5:
			return step(fmt.Sprintf("CALL restock%d()", id))
		default:
			return step("CALL note()")
		}
	}
	// Bound reads on the plans that reuse their buffers across runs: a
	// hash join (audit has no index) and an index probe sorted and cut.
	read := func() equivStep {
		if rng.Intn(2) == 0 {
			return step("SELECT o.id, o.item, a.note FROM orders o JOIN audit a ON a.id = o.id WHERE o.qty >= ? ORDER BY o.id, a.note", Int(int64(rng.Intn(30))))
		}
		return step("SELECT id, qty FROM orders WHERE item = ? ORDER BY qty DESC, id LIMIT 3", Str(items[rng.Intn(len(items))]))
	}
	for i := 0; i < 60; i++ {
		switch rng.Intn(6) {
		case 0: // explicit transaction
			mix = append(mix, step("BEGIN"))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if rng.Intn(3) == 0 {
					mix = append(mix, read())
				} else {
					mix = append(mix, iud())
				}
			}
			switch rng.Intn(4) {
			case 0:
				mix = append(mix, step("ROLLBACK"))
			case 1:
				// The native procedure closes the transaction; the COMMIT
				// after it fails with "no transaction open".
				mix = append(mix, step("CALL abort()"), step("COMMIT"))
			default:
				mix = append(mix, step("COMMIT"))
			}
		case 1: // out-of-place transaction control fails without effect
			mix = append(mix, step([]string{"COMMIT", "ROLLBACK"}[rng.Intn(2)]))
		case 2:
			mix = append(mix, step("SELECT id, item, qty FROM orders WHERE qty >= ? ORDER BY id", Int(int64(rng.Intn(30)))))
		case 3:
			mix = append(mix, read())
		default:
			mix = append(mix, iud())
		}
	}
	return append(mix,
		step("CREATE INDEX orders_qty ON orders (qty)"),
		step("SELECT COUNT(*), SUM(qty) FROM orders"),
		step("SELECT id, note FROM audit ORDER BY id, note"))
}

// equivDB opens a database with the mix's native procedures and a
// change capture installed.
func equivDB() (*DB, *[]Change) {
	db := Open("equiv")
	db.RegisterProcedure("note", func(s *Session) (*Result, error) {
		return s.Exec("INSERT INTO audit SELECT id, 'seen' FROM orders WHERE qty < ?", Int(10))
	})
	db.RegisterProcedure("abort", func(s *Session) (*Result, error) {
		s.Rollback()
		return &Result{}, nil
	})
	return db, captureChanges(db)
}

// outcome is what one statement produced, in comparable form.
type outcome struct {
	res *Result
	err string
}

func outcomeOf(res *Result, err error) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{res: res}
}

// canonicalChanges brings a change stream to the form all entry points
// must agree on: normalized text with the extracted literals merged into
// the parameter vector.
func canonicalChanges(t *testing.T, changes []Change) []Change {
	t.Helper()
	out := make([]Change, len(changes))
	for i, c := range changes {
		if n, ok := normalizeStmt(c.SQL); ok {
			if len(n.consts) > 0 && len(c.Params) < userSlots(n.pattern) {
				t.Fatalf("seq %d: %q carries too few params %v", c.Seq, c.SQL, c.Params)
			}
			c.SQL, c.Params = n.text, mergeParams(nil, c.Params, n.consts, n.pattern)
		}
		if len(c.Params) == 0 {
			c.Params = nil
		}
		out[i] = c
	}
	return out
}

// renderScript inlines each step's params as SQL literals.
func renderScript(t *testing.T, steps []equivStep) string {
	t.Helper()
	var b strings.Builder
	for _, st := range steps {
		sql := st.sql
		for _, p := range st.params {
			if !strings.Contains(sql, "?") {
				t.Fatalf("%q: more params than placeholders", st.sql)
			}
			sql = strings.Replace(sql, "?", p.SQLLiteral(), 1)
		}
		b.WriteString(sql)
		b.WriteString(";\n")
	}
	return b.String()
}

func TestEntryPointsAreEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mix := equivMix(seed)

			cachedDB, cachedChanges := equivDB()
			cached := cachedDB.Session()
			preparedDB, preparedChanges := equivDB()
			prepared := preparedDB.Session()
			var ok []equivStep // the steps that succeeded: the script
			var last outcome
			sawErr, sawAbort := false, false
			for i, st := range mix {
				a := outcomeOf(cached.Exec(st.sql, st.params...))
				var b outcome
				if ps, err := prepared.Prepare(st.sql); err != nil {
					b = outcomeOf(nil, err)
				} else {
					b = outcomeOf(ps.Exec(st.params...))
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d %q %v:\n   Exec: %+v %q\nPrepare: %+v %q", i, st.sql, st.params, a.res, a.err, b.res, b.err)
				}
				if a.err != "" {
					sawErr = true
					continue
				}
				sawAbort = sawAbort || st.sql == "CALL abort()"
				ok = append(ok, st)
				last = a
			}
			if !sawErr || !sawAbort {
				t.Fatalf("mix exercised no failing statement (%v) or no native rollback (%v)", sawErr, sawAbort)
			}

			// ExecScript stops at the first error, so its script is the
			// statements that succeeded; the ones that failed had no effect
			// and emitted no change.
			scriptDB, scriptChanges := equivDB()
			res, err := scriptDB.ExecScript(renderScript(t, ok))
			if c := outcomeOf(res, err); !reflect.DeepEqual(c, last) {
				t.Fatalf("ExecScript: %+v %q, want the last statement's %+v", c.res, c.err, last.res)
			}

			want := cachedDB.Dump()
			if got := preparedDB.Dump(); got != want {
				t.Fatalf("Prepare arm diverged:\n%s\nwant:\n%s", got, want)
			}
			if got := scriptDB.Dump(); got != want {
				t.Fatalf("ExecScript arm diverged:\n%s\nwant:\n%s", got, want)
			}

			wantChanges := canonicalChanges(t, *cachedChanges)
			if len(wantChanges) == 0 {
				t.Fatal("no changes captured")
			}
			for i, c := range wantChanges {
				if c.Seq != int64(i+1) {
					t.Fatalf("change %d has seq %d: stream not dense", i, c.Seq)
				}
			}
			for arm, got := range map[string][]Change{
				"Prepare":    canonicalChanges(t, *preparedChanges),
				"ExecScript": canonicalChanges(t, *scriptChanges),
			} {
				if len(got) != len(wantChanges) {
					t.Fatalf("%s arm streamed %d changes, Exec arm %d", arm, len(got), len(wantChanges))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], wantChanges[i]) {
						t.Fatalf("%s arm change %d:\n got %+v\nwant %+v", arm, i, got[i], wantChanges[i])
					}
				}
			}

			// And the stream is sufficient: a replica fed it converges.
			replica, _ := equivDB()
			ap := NewApplier(replica, 0)
			for _, c := range *scriptChanges {
				if err := ap.Apply(c); err != nil {
					t.Fatalf("replay of the ExecScript stream: %v", err)
				}
			}
			if got := replica.Dump(); got != want {
				t.Fatalf("replica of the ExecScript stream diverged:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestRollbackAPIBypassesStatementGates: Session.Rollback is a ROLLBACK
// run below the statement boundary. An abort must always go through, so
// neither a refusing ExecHook, nor an expired budget, nor replica mode
// may stop it — and the change stream still gets exactly one ROLLBACK.
func TestRollbackAPIBypassesStatementGates(t *testing.T) {
	db := Open("p")
	db.MustExec("CREATE TABLE t (id INTEGER)")
	changes := captureChanges(db)
	s := db.Session()
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	stmts := db.Stats().Statements

	refused := 0
	db.SetExecHook(func(string) error { refused++; return errors.New("refused") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.BindContext(ctx)
	db.SetReadOnly(true)
	if _, err := s.Exec("ROLLBACK"); err == nil {
		t.Fatal("the gates let a ROLLBACK statement through; the test proves nothing")
	}

	s.Rollback()

	if s.InTransaction() {
		t.Fatal("transaction still open after Rollback")
	}
	if refused != 0 {
		t.Fatalf("ExecHook consulted %d times", refused)
	}
	if got := db.Stats().Statements - stmts; got != 1 {
		t.Fatalf("Rollback counted as %d statements, want 1", got)
	}
	var kinds []string
	for _, c := range *changes {
		kinds = append(kinds, c.Kind)
	}
	if want := []string{"BEGIN", "INSERT", "ROLLBACK"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("change stream = %v, want %v", kinds, want)
	}
	if c := (*changes)[2]; c.SQL != "ROLLBACK" || c.Session != s.ID() {
		t.Fatalf("rollback change = %+v", c)
	}
	s.Rollback() // nothing open: no second record
	if len(*changes) != 3 {
		t.Fatalf("idle Rollback emitted a change: %d", len(*changes))
	}

	db.SetExecHook(nil)
	db.SetReadOnly(false)
	s.BindContext(nil)
	res, err := s.Exec("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("rolled-back insert visible: %v %v", res, err)
	}
}

// TestCachedTextAcrossDDLMatchesUncachedPrepare: DDL invalidates nothing
// in the statement cache; a plan kept with a cached text is rebuilt when
// what it read changed — an INSERT's row template, NOT NULL columns
// included, when its table is re-created. So the same cached text — re-executed
// byte-identically (raw front-cache hit) and with a fresh literal
// (normalized-plan hit) — must, after any DDL on the objects it names,
// return what an uncached Prepare of that text returns on a database
// that went through the same history: results, error text, contents.
func TestCachedTextAcrossDDLMatchesUncachedPrepare(t *testing.T) {
	probes := []string{ // one literal slot each
		"SELECT * FROM t WHERE a >= %d ORDER BY a, b",
		"SELECT a, b FROM t WHERE b = %d ORDER BY a",
		"INSERT INTO t VALUES (%d, 2)",
		"INSERT INTO t (a, b) VALUES (%d, 2)",
		"INSERT INTO t (a) VALUES (%d)",               // the other columns are NULL, or refuse it
		"INSERT INTO t (b, a) VALUES (%d, 5), (1, 6)", // multi-row, columns out of table order
		"UPDATE t SET b = b + 1 WHERE a = %d",
		"DELETE FROM t WHERE a = %d AND b > 100",
		"SELECT * FROM x WHERE n >= %d ORDER BY n",
		"INSERT INTO x VALUES (%d)",
	}
	rounds := [][]string{
		{ // warm the cache
			"CREATE TABLE t (a INTEGER, b INTEGER)",
			"INSERT INTO t VALUES (1, 2), (2, 2), (3, 4)",
			"CREATE TABLE x (n INTEGER)",
			"INSERT INTO x VALUES (5)",
		},
		{"CREATE INDEX it ON t (b)"},
		{ // same name, other column order
			"DROP TABLE t",
			"CREATE TABLE t (b INTEGER, a INTEGER)",
			"INSERT INTO t VALUES (2, 1), (4, 3)",
		},
		{ // same name, column order swapped back, a NOT NULL column and an index
			"DROP TABLE t",
			"CREATE TABLE t (a INTEGER, b INTEGER NOT NULL)",
			"INSERT INTO t VALUES (1, 2), (3, 4)",
			"CREATE INDEX it ON t (b)",
		},
		{ // a table's name reused by a wider table
			"DROP TABLE x",
			"CREATE TABLE x (n INTEGER, m INTEGER)",
		},
	}

	cachedDB, refDB := Open("cached"), Open("ref")
	cached, ref := cachedDB.Session(), refDB.Session()
	uncached := func(sql string) outcome {
		ps, err := ref.Prepare(sql)
		if err != nil {
			return outcomeOf(nil, err)
		}
		return outcomeOf(ps.Exec())
	}
	sawErr := false
	for round, ddl := range rounds {
		for _, sql := range ddl {
			if a, b := outcomeOf(cached.Exec(sql)), uncached(sql); a.err != "" || b.err != "" {
				t.Fatalf("round %d %q: %q / %q", round, sql, a.err, b.err)
			}
		}
		base := cachedDB.StmtCacheStats()
		for _, probe := range probes {
			// Literal 1 every round: byte-identical text, a raw hit from
			// round 1 on. Literal 10+round: never seen, so it can only
			// resolve through the normalized plan.
			for _, sql := range []string{fmt.Sprintf(probe, 1), fmt.Sprintf(probe, 10+round)} {
				a, b := outcomeOf(cached.Exec(sql)), uncached(sql)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("round %d %q:\n cached: %+v %q\nPrepare: %+v %q", round, sql, a.res, a.err, b.res, b.err)
				}
				sawErr = sawErr || a.err != ""
			}
		}
		if round == 0 {
			continue
		}
		cs := cachedDB.StmtCacheStats()
		if hits, misses := cs.Hits-base.Hits, cs.Misses-base.Misses; hits != int64(2*len(probes)) || misses != 0 {
			t.Fatalf("round %d: %d hits, %d misses; want every probe served from the cache across %v", round, hits, misses, ddl)
		}
	}
	if !sawErr {
		t.Fatal("no probe ever failed at execution (shape mismatch): the rounds lost their teeth")
	}
	if got, want := cachedDB.Dump(), refDB.Dump(); got != want {
		t.Fatalf("cached arm diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestConstructorsAreEquivalentToText is the typed constructors' arm of
// the entry-point equivalence: a result-table lifecycle run through
// DropTable / CreateTableAs / SelectAll must be indistinguishable from
// the same statements handed to Exec and to Prepare as text — results,
// error text, contents, change stream (text and params) — and a replica
// fed the constructors' stream converges. Their stats read like a
// prepared statement's: same Kind, Cache == "", and no parse time beyond
// the one parse of the shared query.
func TestConstructorsAreEquivalentToText(t *testing.T) {
	type step struct {
		text   string
		params []Value
		typed  func(s *Session) (*Result, error)
	}
	agg, err := ParseQuery("SELECT item, SUM(qty) AS qty FROM orders WHERE qty >= ? GROUP BY item ORDER BY item")
	if err != nil {
		t.Fatal(err)
	}
	all, err := ParseQuery("SELECT * FROM orders WHERE item <> 'nut'")
	if err != nil {
		t.Fatal(err)
	}
	drop := func(name string, ifExists bool) step {
		text := "DROP TABLE " + name
		if ifExists {
			text = "DROP TABLE IF EXISTS " + name
		}
		return step{text: text, typed: func(s *Session) (*Result, error) { return s.DropTable(name, ifExists) }}
	}
	ctas := func(name string, q *ParsedQuery, params ...Value) step {
		return step{text: "CREATE TABLE " + name + " AS " + q.SQL(), params: params,
			typed: func(s *Session) (*Result, error) { return s.CreateTableAs(name, q, params...) }}
	}
	selectAll := func(name string) step {
		return step{text: "SELECT * FROM " + name, typed: func(s *Session) (*Result, error) { return s.SelectAll(name) }}
	}
	plain := func(text string) step { // not a constructor shape: prepared in the typed arm
		return step{text: text, typed: func(s *Session) (*Result, error) {
			ps, err := s.Prepare(text)
			if err != nil {
				return nil, err
			}
			return ps.Exec()
		}}
	}
	steps := []step{
		plain("CREATE TABLE orders (id INTEGER PRIMARY KEY, item VARCHAR, qty INTEGER)"),
		plain("INSERT INTO orders VALUES (1, 'bolt', 5), (2, 'nut', 7), (3, 'bolt', 9), (4, 'washer', 1)"),
		drop("SR_R_i1", true), // nothing to drop
		ctas("SR_R_i1", agg, Int(2)),
		selectAll("SR_R_i1"),
		ctas("SR_R_i1", agg, Int(2)), // already exists: fails without effect
		drop("SR_R_i1", true),        // the retry's drop
		ctas("SR_R_i1", agg, Int(6)),
		selectAll("SR_R_i1"),
		ctas("SR_R_i2", agg), // too few params: fails at execution
		plain("BEGIN"),
		ctas("SR_S_i1", all),
		selectAll("SR_S_i1"),
		plain("COMMIT"),
		drop("SR_R_i1", false),
		drop("SR_R_i1", false), // no such table
		selectAll("SR_R_i1"),   // no such table
		drop("SR_S_i1", true),
		drop("not a name", true), // refused by the constructor, a parse error as text
	}

	type arm struct {
		db      *DB
		s       *Session
		changes *[]Change
		stats   []StmtStats
		run     func(st step) (*Result, error)
	}
	newArm := func(run func(a *arm, st step) (*Result, error)) *arm {
		a := &arm{db: Open("equiv")}
		a.s = a.db.Session()
		a.changes = captureChanges(a.db)
		a.db.SetStatsSink(func(st StmtStats) { a.stats = append(a.stats, st) })
		a.run = func(st step) (*Result, error) { return run(a, st) }
		return a
	}
	typed := newArm(func(a *arm, st step) (*Result, error) { return st.typed(a.s) })
	text := newArm(func(a *arm, st step) (*Result, error) { return a.s.Exec(st.text, st.params...) })
	prepared := newArm(func(a *arm, st step) (*Result, error) {
		ps, err := a.s.Prepare(st.text)
		if err != nil {
			return nil, err
		}
		return ps.Exec(st.params...)
	})

	sawErr := 0
	for i, st := range steps {
		want := outcomeOf(text.run(st))
		got, prep := outcomeOf(typed.run(st)), outcomeOf(prepared.run(st))
		if i == len(steps)-1 {
			// The one place the arms may differ in wording: the constructor
			// refuses the name before there is a text to parse.
			if got.err == "" || want.err == "" || prep.err == "" {
				t.Fatalf("step %d %q: a bad name went through: %q / %q / %q", i, st.text, got.err, want.err, prep.err)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(prep, want) {
			t.Fatalf("step %d %q %v:\n  typed: %+v %q\n   Exec: %+v %q\nPrepare: %+v %q",
				i, st.text, st.params, got.res, got.err, want.res, want.err, prep.res, prep.err)
		}
		if want.err != "" {
			sawErr++
		}
	}
	if sawErr != 4 {
		t.Fatalf("%d steps failed, want the 4 written to", sawErr)
	}

	want := text.db.Dump()
	for name, a := range map[string]*arm{"typed": typed, "Prepare": prepared} {
		if got := a.db.Dump(); got != want {
			t.Fatalf("%s arm diverged:\n%s\nwant:\n%s", name, got, want)
		}
	}
	// The typed arm's stream carries the rendered text verbatim — what
	// Prepare of that text carries — and canonically what Exec carries.
	if !reflect.DeepEqual(*typed.changes, *prepared.changes) {
		t.Fatalf("typed stream differs from the Prepare stream:\n got %+v\nwant %+v", *typed.changes, *prepared.changes)
	}
	if got, want := canonicalChanges(t, *typed.changes), canonicalChanges(t, *text.changes); !reflect.DeepEqual(got, want) {
		t.Fatalf("typed stream differs canonically from the Exec stream:\n got %+v\nwant %+v", got, want)
	}
	replica := Open("equiv")
	ap := NewApplier(replica, 0)
	for _, c := range *typed.changes {
		if err := ap.Apply(c); err != nil {
			t.Fatalf("replay of the typed stream: %v", err)
		}
	}
	if got := replica.Dump(); got != want {
		t.Fatalf("replica of the typed stream diverged:\n%s\nwant:\n%s", got, want)
	}

	// Stats: one record per statement that passed the gates, in every arm;
	// the typed arm labels like Prepare and parses nothing but each shared
	// query once, charged to its first execution.
	if len(typed.stats) != len(text.stats) || len(typed.stats) != len(prepared.stats) {
		t.Fatalf("stats records: typed %d, Exec %d, Prepare %d", len(typed.stats), len(text.stats), len(prepared.stats))
	}
	parsed := 0
	for i, st := range typed.stats {
		if st.Kind != text.stats[i].Kind || st.Err != text.stats[i].Err || st.RowsReturned != text.stats[i].RowsReturned {
			t.Fatalf("stat %d: typed %+v, Exec %+v", i, st, text.stats[i])
		}
		if i < 2 || st.Kind == "BEGIN" || st.Kind == "COMMIT" {
			continue // the plain steps
		}
		if st.Cache != prepared.stats[i].Cache || st.Cache != "" {
			t.Fatalf("stat %d (%s): Cache = %q, Prepare's %q", i, st.Kind, st.Cache, prepared.stats[i].Cache)
		}
		if st.Parse != 0 {
			if st.Kind != "CREATE TABLE" {
				t.Fatalf("stat %d (%s) reports parse time %v", i, st.Kind, st.Parse)
			}
			parsed++
		}
	}
	if parsed != 2 {
		t.Fatalf("%d constructor statements reported parse time, want 2 (one per shared query)", parsed)
	}
}
