package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wfsql/internal/obsv"
)

// figure4DB builds the Figure-4 supplier schema (the paper's running
// example: Orders placed with a supplier, confirmations recorded) with
// the index set the reproduction uses.
func figure4DB(t *testing.T) *DB {
	t.Helper()
	db := Open("orderdb")
	db.MustExec("CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, ItemID VARCHAR, Quantity INTEGER, Approved BOOLEAN)")
	db.MustExec("CREATE TABLE OrderConfirmations (ItemID VARCHAR, Quantity INTEGER, Confirmation VARCHAR)")
	db.MustExec("CREATE INDEX idx_item ON Orders (ItemID)")
	db.MustExec("CREATE INDEX idx_order_item ON Orders (OrderID, ItemID)")
	db.MustExec("CREATE INDEX idx_conf_item ON OrderConfirmations (ItemID)")
	for i := 1; i <= 20; i++ {
		db.MustExec("INSERT INTO Orders VALUES (?, ?, ?, ?)",
			Int(int64(i)), Str("item-"+string(rune('a'+i%5))), Int(int64(i*10)), Bool(i%2 == 0))
	}
	return db
}

func TestStmtStatsEmitted(t *testing.T) {
	db := figure4DB(t)
	s := db.Session()
	var stats []StmtStats
	s.SetStatsSink(func(st StmtStats) { stats = append(stats, st) })

	if _, err := s.Exec("SELECT * FROM Orders WHERE OrderID = ?", Int(7)); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("want 1 stat, got %d", len(stats))
	}
	st := stats[0]
	if st.Kind != "SELECT" {
		t.Fatalf("kind = %s", st.Kind)
	}
	if st.Table != "Orders" || st.Index != "Orders_pk" {
		t.Fatalf("access path = table %q index %q", st.Table, st.Index)
	}
	if !strings.HasPrefix(st.Plan, "INDEX PROBE Orders USING Orders_pk") {
		t.Fatalf("plan label = %q", st.Plan)
	}
	if st.RowsScanned != 1 || st.RowsReturned != 1 {
		t.Fatalf("rows scanned/returned = %d/%d", st.RowsScanned, st.RowsReturned)
	}
	if st.Parse <= 0 {
		t.Fatalf("parse time not measured: %v", st.Parse)
	}
	if st.Exec < 0 {
		t.Fatalf("exec time negative: %v", st.Exec)
	}

	// A scan query reports the scan plan and full candidate count.
	stats = nil
	if _, err := s.Exec("SELECT * FROM Orders WHERE Quantity > ?", Int(100)); err != nil {
		t.Fatal(err)
	}
	st = stats[0]
	if st.Index != "" || !strings.HasPrefix(st.Plan, "SCAN Orders") {
		t.Fatalf("scan stats = index %q plan %q", st.Index, st.Plan)
	}
	if st.RowsScanned != 20 {
		t.Fatalf("scan should read all 20 rows, got %d", st.RowsScanned)
	}

	// DML reports RowsAffected; errors are recorded.
	stats = nil
	if _, err := s.Exec("UPDATE Orders SET Approved = ? WHERE ItemID = ?", Bool(true), Str("item-b")); err != nil {
		t.Fatal(err)
	}
	if stats[0].Kind != "UPDATE" || stats[0].RowsAffected == 0 {
		t.Fatalf("update stats = %+v", stats[0])
	}
	if stats[0].Index != "idx_item" {
		t.Fatalf("update should probe idx_item, got %q", stats[0].Index)
	}
	stats = nil
	if _, err := s.Exec("SELECT * FROM NoSuchTable"); err == nil {
		t.Fatal("expected error")
	}
	if stats[0].Err == "" {
		t.Fatal("error not recorded in stats")
	}
}

func TestPreparedStmtParseChargedOnce(t *testing.T) {
	db := figure4DB(t)
	s := db.Session()
	var stats []StmtStats
	s.SetStatsSink(func(st StmtStats) { stats = append(stats, st) })

	p, err := s.Prepare("SELECT * FROM Orders WHERE OrderID = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Exec(Int(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if len(stats) != 3 {
		t.Fatalf("want 3 stats, got %d", len(stats))
	}
	if stats[0].Parse <= 0 {
		t.Fatalf("first execution must carry the parse cost, got %v", stats[0].Parse)
	}
	if stats[1].Parse != 0 || stats[2].Parse != 0 {
		t.Fatalf("re-executions must report zero parse: %v %v", stats[1].Parse, stats[2].Parse)
	}
}

// explainAccessPath runs EXPLAIN and returns its first plan line (the
// access path) trimmed of indentation.
func explainAccessPath(t *testing.T, s *Session, query string, params ...Value) string {
	t.Helper()
	res, err := s.Exec("EXPLAIN "+query, params...)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", query, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("EXPLAIN %s: empty plan", query)
	}
	return strings.TrimSpace(res.Rows[0][0].String())
}

// TestExplainMatchesExecutorIndexChoice pins, for each indexed query
// shape in the Figure-4 supplier schema, that the index EXPLAIN names is
// exactly the index the executor probes (both flow through the shared
// chooseIndex planner, and the executor reports its actual choice via
// StmtStats).
func TestExplainMatchesExecutorIndexChoice(t *testing.T) {
	db := figure4DB(t)

	shapes := []struct {
		name   string
		query  string
		params []Value
		index  string // "" = scan
	}{
		{"pk-equality", "SELECT * FROM Orders WHERE OrderID = ?", []Value{Int(3)}, "Orders_pk"},
		{"secondary-equality", "SELECT * FROM Orders WHERE ItemID = ?", []Value{Str("item-b")}, "idx_item"},
		{"composite-conjunction", "SELECT * FROM Orders WHERE OrderID = ? AND ItemID = ?", []Value{Int(3), Str("item-d")}, "idx_order_item"},
		{"confirmation-equality", "SELECT * FROM OrderConfirmations WHERE ItemID = ?", []Value{Str("item-a")}, "idx_conf_item"},
		{"extra-conjunct", "SELECT * FROM Orders WHERE ItemID = ? AND Quantity > ?", []Value{Str("item-b"), Int(0)}, "idx_item"},
		{"no-index", "SELECT * FROM Orders WHERE Quantity = ?", []Value{Int(50)}, ""},
		{"disjunction-unsound", "SELECT * FROM Orders WHERE OrderID = ? OR ItemID = ?", []Value{Int(1), Str("item-b")}, ""},
	}

	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			s := db.Session()
			plan := explainAccessPath(t, s, shape.query, shape.params...)

			var got StmtStats
			s.SetStatsSink(func(st StmtStats) { got = st })
			if _, err := s.Exec(shape.query, shape.params...); err != nil {
				t.Fatal(err)
			}

			if got.Index != shape.index {
				t.Fatalf("executor probed %q, want %q", got.Index, shape.index)
			}
			if shape.index != "" {
				want := "USING " + shape.index
				if !strings.Contains(plan, want) {
					t.Fatalf("EXPLAIN %q does not name the executor's index %q", plan, shape.index)
				}
			} else if !strings.HasPrefix(plan, "SCAN ") {
				t.Fatalf("EXPLAIN %q should be a scan", plan)
			}
			// The executor's plan label and EXPLAIN's access path are the
			// same string (shared planLabel renderer).
			if got.Plan != plan {
				t.Fatalf("executor plan %q != EXPLAIN access path %q", got.Plan, plan)
			}
		})
	}
}

// TestChooseIndexDeterministic pins the planner bugfix: with several
// applicable indexes the choice used to range over a Go map (randomized
// iteration), so EXPLAIN could name one index and the next execution
// probe another. The planner now prefers the most specific index with a
// name tiebreak, stably across repeated calls.
func TestChooseIndexDeterministic(t *testing.T) {
	db := Open("det")
	db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)")
	// Two single-column indexes, both applicable for a=? AND b=?: the
	// name tiebreak must always pick ia.
	db.MustExec("CREATE INDEX ib ON t (b)")
	db.MustExec("CREATE INDEX ia ON t (a)")
	// A composite index beats both when fully bound.
	db.MustExec("CREATE INDEX zz_ab ON t (a, b)")
	db.MustExec("INSERT INTO t VALUES (1, 2, 3)")

	for i := 0; i < 50; i++ {
		s := db.Session()
		var got StmtStats
		s.SetStatsSink(func(st StmtStats) { got = st })

		if _, err := s.Exec("SELECT * FROM t WHERE a = ? AND b = ?", Int(1), Int(2)); err != nil {
			t.Fatal(err)
		}
		if got.Index != "zz_ab" {
			t.Fatalf("iteration %d: most specific index not chosen: %q", i, got.Index)
		}
		plan := explainAccessPath(t, s, "SELECT * FROM t WHERE a = ? AND b = ?", Int(1), Int(2))
		if !strings.Contains(plan, "USING zz_ab") {
			t.Fatalf("iteration %d: EXPLAIN diverged: %q", i, plan)
		}

		// With only single-column candidates bound, the name tiebreak
		// holds.
		if _, err := s.Exec("SELECT * FROM t WHERE a = ? AND c = ?", Int(1), Int(3)); err != nil {
			t.Fatal(err)
		}
		if got.Index != "ia" {
			t.Fatalf("iteration %d: tiebreak unstable: %q", i, got.Index)
		}
	}
}

func TestDBObservability(t *testing.T) {
	db := figure4DB(t)
	o := obsv.New()
	col := obsv.NewCollector()
	o.Tracer.AddSink(col)
	db.SetObservability(o)

	if _, err := db.Exec("SELECT * FROM Orders WHERE OrderID = ?", Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT * FROM Orders WHERE Quantity = ?", Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO OrderConfirmations VALUES (?, ?, ?)", Str("x"), Int(1), Str("ok")); err != nil {
		t.Fatal(err)
	}

	m := o.M()
	if got := m.Counter("sqldb.stmt.SELECT").Value(); got != 2 {
		t.Fatalf("sqldb.stmt.SELECT = %d", got)
	}
	if got := m.Counter("sqldb.index_hits").Value(); got != 1 {
		t.Fatalf("index_hits = %d", got)
	}
	if got := m.Counter("sqldb.index_misses").Value(); got != 1 {
		t.Fatalf("index_misses = %d", got)
	}
	if m.Histogram("sqldb.exec_ms").Count() != 3 {
		t.Fatalf("exec_ms count = %d", m.Histogram("sqldb.exec_ms").Count())
	}

	sqlSpans := col.ByKind(obsv.KindSQL)
	if len(sqlSpans) != 3 {
		t.Fatalf("want 3 SQL spans, got %d", len(sqlSpans))
	}
	if sqlSpans[0].Attrs["plan"] == "" || sqlSpans[0].Attrs["table"] != "Orders" {
		t.Fatalf("span attrs = %v", sqlSpans[0].Attrs)
	}

	// Detach: no further spans or counts.
	db.SetObservability(nil)
	if _, err := db.Exec("SELECT COUNT(*) FROM Orders"); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sqldb.stmt.SELECT").Value(); got != 2 {
		t.Fatalf("detached DB still counting: %d", got)
	}
}

// TestPreparedParseSurvivesRefusedExecution pins the parse-attribution
// bugfix: the session used to stage the prepared statement's one-time
// parse cost in a mutable session field that ExecStmt consumed *before*
// the ExecHook ran. A chaos-refused first execution therefore discarded
// the parse cost without emitting any stat, and every later StmtStats for
// the statement claimed Parse == 0. Parse durations are now threaded
// through the call explicitly and re-armed when the hook refuses the
// execution, so the first execution that actually runs carries the cost.
func TestPreparedParseSurvivesRefusedExecution(t *testing.T) {
	db := figure4DB(t)
	s := db.Session()
	var stats []StmtStats
	s.SetStatsSink(func(st StmtStats) { stats = append(stats, st) })

	p, err := s.Prepare("SELECT * FROM Orders WHERE OrderID = ?")
	if err != nil {
		t.Fatal(err)
	}

	// Chaos refuses the first execution before it runs.
	refuse := true
	db.SetExecHook(func(kind string) error {
		if refuse {
			refuse = false
			return fmt.Errorf("chaos: connection refused")
		}
		return nil
	})
	if _, err := p.Exec(Int(1)); err == nil {
		t.Fatal("expected the hook to refuse the first execution")
	}
	if len(stats) != 0 {
		t.Fatalf("refused execution must not emit stats, got %d", len(stats))
	}

	// The first execution that actually runs still carries the parse cost.
	if _, err := p.Exec(Int(1)); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("want 1 stat, got %d", len(stats))
	}
	if stats[0].Parse <= 0 {
		t.Fatalf("parse cost lost after refused execution: Parse = %v", stats[0].Parse)
	}

	// And only that one: re-executions report zero parse.
	if _, err := p.Exec(Int(2)); err != nil {
		t.Fatal(err)
	}
	if stats[1].Parse != 0 {
		t.Fatalf("parse charged twice: %v", stats[1].Parse)
	}
}

// TestStmtCacheHitStats pins the statement cache's stats contract: the
// first Exec of a SQL text is a miss that pays (and reports) the parse,
// repeats are hits with zero parse, and the per-DB counters add up.
func TestStmtCacheHitStats(t *testing.T) {
	db := figure4DB(t)
	base := db.StmtCacheStats()
	s := db.Session()
	var stats []StmtStats
	s.SetStatsSink(func(st StmtStats) { stats = append(stats, st) })

	const q = "SELECT * FROM Orders WHERE OrderID = ?"
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(q, Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if stats[0].Cache != CacheMiss || stats[0].Parse <= 0 {
		t.Fatalf("first execution: cache=%q parse=%v, want miss with parse cost", stats[0].Cache, stats[0].Parse)
	}
	for i := 1; i < 3; i++ {
		if stats[i].Cache != CacheHit || stats[i].Parse != 0 {
			t.Fatalf("execution %d: cache=%q parse=%v, want hit with zero parse", i, stats[i].Cache, stats[i].Parse)
		}
	}
	cs := db.StmtCacheStats()
	if cs.Hits-base.Hits != 2 || cs.Misses-base.Misses != 1 {
		t.Fatalf("cache counters: hits+%d misses+%d, want +2/+1", cs.Hits-base.Hits, cs.Misses-base.Misses)
	}

	// DDL costs a cached statement nothing — the plan is a parse tree
	// whose names bind at execution — whether it touches the statement's
	// table or another.
	for _, ddl := range []string{
		"CREATE TABLE flush_probe (x INTEGER)",
		"CREATE INDEX probe_idx ON Orders (Quantity)",
	} {
		db.MustExec(ddl)
		stats = nil
		if _, err := s.Exec(q, Int(1)); err != nil {
			t.Fatal(err)
		}
		if stats[0].Cache != CacheHit {
			t.Fatalf("%s evicted the cached statement: %q", ddl, stats[0].Cache)
		}
	}
}

// TestHooksSwapUnderLoad: the exec hook and the stats and change sinks
// are lock-free pointers read by every top-level statement; installing
// and removing them while sessions execute must be race-free (run under
// -race) and each statement must see either the old or the new value.
func TestHooksSwapUnderLoad(t *testing.T) {
	db := Open("hooks")
	db.MustExec("CREATE TABLE t (x INTEGER)")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Exec("INSERT INTO t VALUES (1)"); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
	}
	var hooked, stats, changes atomic.Int64
	for i := 0; i < 200; i++ {
		db.SetExecHook(func(string) error { hooked.Add(1); return nil })
		db.SetStatsSink(func(StmtStats) { stats.Add(1) })
		db.SetChangeSink(func(Change) { changes.Add(1) })
		db.SetExecHook(nil)
		db.SetStatsSink(nil)
		db.SetChangeSink(nil)
	}
	close(stop)
	wg.Wait()
	t.Logf("observed by %d hooks, %d stats sinks, %d change sinks", hooked.Load(), stats.Load(), changes.Load())
}
