package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestQuickCompareValuesIsAntisymmetric checks compareValues(a,b) ==
// -compareValues(b,a) and reflexivity for random numeric/string values.
func TestQuickCompareValuesIsAntisymmetric(t *testing.T) {
	mk := func(tag uint8, i int64, f float64, s string) Value {
		switch tag % 4 {
		case 0:
			return Int(i)
		case 1:
			return Float(f)
		case 2:
			return Str(s)
		default:
			return Bool(i%2 == 0)
		}
	}
	f := func(t1 uint8, i1 int64, f1 float64, s1 string, t2 uint8, i2 int64, f2 float64, s2 string) bool {
		a, b := mk(t1, i1, f1, s1), mk(t2, i2, f2, s2)
		ab, ok1 := compareValues(a, b)
		ba, ok2 := compareValues(b, a)
		if ok1 != ok2 {
			return false
		}
		if ok1 && ab != -ba {
			return false
		}
		// Reflexivity (NaN-free constructors above).
		if aa, ok := compareValues(a, a); ok && aa != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRollbackRestoresState applies a random sequence of DML inside
// a transaction, rolls back, and checks the table content is unchanged.
func TestQuickRollbackRestoresState(t *testing.T) {
	snapshot := func(db *DB) string {
		r := db.MustExec("SELECT k, v FROM t ORDER BY k")
		var b strings.Builder
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%s=%s;", row[0], row[1])
		}
		return b.String()
	}
	f := func(ops []uint16) bool {
		db := Open("p")
		db.MustExec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
		for i := 0; i < 8; i++ {
			db.MustExec("INSERT INTO t VALUES (?, ?)", Int(int64(i)), Int(int64(i*i)))
		}
		before := snapshot(db)
		s := db.Session()
		if _, err := s.Exec("BEGIN"); err != nil {
			return false
		}
		nextKey := int64(100)
		for _, op := range ops {
			k := int64(op % 8)
			switch op % 3 {
			case 0:
				s.Exec("INSERT INTO t VALUES (?, ?)", Int(nextKey), Int(int64(op)))
				nextKey++
			case 1:
				s.Exec("UPDATE t SET v = v + 1 WHERE k = ?", Int(k))
			case 2:
				s.Exec("DELETE FROM t WHERE k = ?", Int(k))
			}
		}
		if _, err := s.Exec("ROLLBACK"); err != nil {
			return false
		}
		checkDBIndexes(t, db)
		return snapshot(db) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndexEquivalence checks that point queries return identical
// results with and without an index, across random data and probes.
func TestQuickIndexEquivalence(t *testing.T) {
	f := func(keys []int16, probes []int16) bool {
		plain := Open("plain")
		indexed := Open("indexed")
		for _, db := range []*DB{plain, indexed} {
			db.MustExec("CREATE TABLE t (k INTEGER, v INTEGER)")
		}
		for i, k := range keys {
			for _, db := range []*DB{plain, indexed} {
				db.MustExec("INSERT INTO t VALUES (?, ?)", Int(int64(k)), Int(int64(i)))
			}
		}
		indexed.MustExec("CREATE INDEX t_k ON t (k)")
		for _, probe := range probes {
			a := plain.MustExec("SELECT v FROM t WHERE k = ? ORDER BY v", Int(int64(probe)))
			b := indexed.MustExec("SELECT v FROM t WHERE k = ? ORDER BY v", Int(int64(probe)))
			if len(a.Rows) != len(b.Rows) {
				return false
			}
			for i := range a.Rows {
				if !a.Rows[i][0].Equal(b.Rows[i][0]) {
					return false
				}
			}
		}
		checkDBIndexes(t, indexed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderBySorts checks ORDER BY output is sorted per sortCompare.
func TestQuickOrderBySorts(t *testing.T) {
	f := func(vals []int32) bool {
		db := Open("o")
		db.MustExec("CREATE TABLE t (x INTEGER)")
		for _, v := range vals {
			db.MustExec("INSERT INTO t VALUES (?)", Int(int64(v)))
		}
		r := db.MustExec("SELECT x FROM t ORDER BY x")
		for i := 1; i < len(r.Rows); i++ {
			if sortCompare(r.Rows[i-1][0], r.Rows[i][0]) > 0 {
				return false
			}
		}
		return len(r.Rows) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDistinctIsSetLike checks that GROUP BY without an aggregate
// returns unique rows that are a subset of the input, as many as
// COUNT(DISTINCT) counts. SELECT DISTINCT is not in the dialect.
func TestQuickDistinctIsSetLike(t *testing.T) {
	f := func(vals []uint8) bool {
		db := Open("d")
		db.MustExec("CREATE TABLE t (x INTEGER)")
		in := map[int64]bool{}
		for _, v := range vals {
			db.MustExec("INSERT INTO t VALUES (?)", Int(int64(v%10)))
			in[int64(v%10)] = true
		}
		r := db.MustExec("SELECT x FROM t GROUP BY x")
		if n := db.MustExec("SELECT COUNT(DISTINCT x) FROM t").Rows[0][0].I; n != int64(len(in)) {
			return false
		}
		seen := map[int64]bool{}
		for _, row := range r.Rows {
			if seen[row[0].I] {
				return false // duplicate survived
			}
			seen[row[0].I] = true
			if !in[row[0].I] {
				return false // invented value
			}
		}
		return len(seen) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	refused(t, "SELECT DISTINCT x FROM t")
}

// TestQuickAggregatesMatchManualComputation cross-checks SUM and
// COUNT [DISTINCT] against direct computation for random integer columns.
func TestQuickAggregatesMatchManualComputation(t *testing.T) {
	f := func(vals []int16) bool {
		db := Open("agg")
		db.MustExec("CREATE TABLE t (x INTEGER)")
		var sum int64
		distinct := map[int16]bool{}
		for _, v := range vals {
			db.MustExec("INSERT INTO t VALUES (?)", Int(int64(v)))
			sum += int64(v)
			distinct[v] = true
		}
		r := db.MustExec("SELECT COUNT(*), SUM(x), COUNT(DISTINCT x) FROM t")
		row := r.Rows[0]
		if row[0].I != int64(len(vals)) || row[2].I != int64(len(distinct)) {
			return false
		}
		if len(vals) == 0 {
			return row[1].IsNull()
		}
		return row[1].I == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMiscCoverage(t *testing.T) {
	db := Open("misc")
	if db.Name() != "misc" {
		t.Fatal("Name")
	}

	// A composite primary key: PRIMARY KEY on each of its columns.
	db.MustExec("CREATE TABLE pk2 (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY, v VARCHAR)")
	db.MustExec("INSERT INTO pk2 VALUES (1, 1, 'x'), (1, 2, 'y')")
	if _, err := db.Exec("INSERT INTO pk2 VALUES (1, 1, 'dup')"); err == nil {
		t.Fatal("composite PK violated")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "pk2" {
		t.Fatalf("TableNames: %v", names)
	}

	// A comparison's value, float arithmetic, string + concatenation.
	r := db.MustExec("SELECT 1 < 2, 1.5 + 1.5, 'a' + 'b', 2.5 + 1")
	row := r.Rows[0]
	if !row[0].B() || row[1].F() != 3.0 || row[2].S != "ab" || row[3].F() != 3.5 {
		t.Fatalf("expr results: %v", row)
	}

	// Session helpers.
	s := db.Session()
	if s.DB() != db {
		t.Fatal("Session.DB")
	}
	if s.InTransaction() {
		t.Fatal("fresh session in txn")
	}
	s.Exec("BEGIN")
	if !s.InTransaction() {
		t.Fatal("BEGIN not reflected")
	}
	s.Exec("INSERT INTO pk2 VALUES (9, 9, 'z')")
	s.Rollback()
	if s.InTransaction() {
		t.Fatal("Rollback did not close txn")
	}
	if db.MustExec("SELECT COUNT(*) FROM pk2 WHERE a = 9").Rows[0][0].I != 0 {
		t.Fatal("Rollback did not undo")
	}
	s.Rollback() // idempotent outside a transaction

	// ScalarValue success and failure.
	res := db.MustExec("SELECT 42")
	if v, err := res.ScalarValue(); err != nil || v.I != 42 {
		t.Fatalf("ScalarValue: %v %v", v, err)
	}
	res = db.MustExec("SELECT a, b FROM pk2")
	if _, err := res.ScalarValue(); err == nil {
		t.Fatal("ScalarValue on non-scalar must error")
	}

	// Value helpers.
	if Bool(true).String() != "TRUE" || Bool(false).String() != "FALSE" {
		t.Fatal("bool String")
	}
	if Null().String() != "NULL" || Float(2.5).String() != "2.5" {
		t.Fatal("null/float String")
	}
	if !Int(3).Equal(Float(3)) || Int(3).Equal(Str("3")) {
		t.Fatal("Equal cross-kind rules")
	}
	if v, ok := Float(9.9).AsInt(); !ok || v != 9 {
		t.Fatal("AsInt truncation")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Fatal("AsInt on string")
	}

	// sortCompare: NULLs first, cross-kind ordering stable.
	if sortCompare(Null(), Int(1)) != -1 || sortCompare(Int(1), Null()) != 1 || sortCompare(Null(), Null()) != 0 {
		t.Fatal("NULL ordering")
	}
	if sortCompare(Bool(false), Bool(true)) != -1 {
		t.Fatal("bool ordering")
	}
	if sortCompare(Str("a"), Bool(true)) == 0 {
		t.Fatal("cross-kind ordering must be total")
	}
}

func TestCoercionFailures(t *testing.T) {
	db := Open("c")
	db.MustExec("CREATE TABLE c (i INTEGER, f FLOAT, b BOOLEAN)")
	for _, bad := range []string{
		"INSERT INTO c (i) VALUES ('abc')",
		"INSERT INTO c (f) VALUES ('abc')",
		"INSERT INTO c (b) VALUES ('maybe')",
		"INSERT INTO c (f) VALUES (TRUE)",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("%s: expected coercion error", bad)
		}
	}
	// Boolean string forms.
	db.MustExec("INSERT INTO c (b) VALUES ('yes'), ('0'), ('T')")
	r := db.MustExec("SELECT COUNT(*) FROM c WHERE b = TRUE")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("boolean coercion: %v", r.Rows[0][0])
	}
}

func TestVarcharLengthAndColumnHelpers(t *testing.T) {
	db := Open("v")
	db.MustExec("CREATE TABLE v (s VARCHAR NOT NULL, n INTEGER)")
	cols, _ := db.Schema("v")
	if len(cols) != 2 || !cols[0].NotNull {
		t.Fatalf("schema: %+v", cols)
	}
	if _, err := db.Schema("nope"); err == nil {
		t.Fatal("Schema on missing table")
	}
	refused(t, "CREATE TABLE v (s VARCHAR(100) NOT NULL)", "CREATE TABLE v (i INT, t TEXT, b BOOL)")
}

// ---------------------------------------------------------------------------
// Concurrency properties (PR 4): the RWMutex engine-lock split must keep
// the database linearizable for writers, allow read-only statements to
// run concurrently, and keep planner decisions stable while the pool of
// scheduler workers hammers one shared DB. All of these are only
// meaningful under -race.

// TestConcurrentReadersWithWriter runs many read-only sessions against
// one writer session mutating the same table. Readers must never observe
// an error or a torn row (ItemID and Quantity updated together), and the
// final state must reflect every committed write.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const (
		readers  = 8
		writes   = 200
		rowCount = 16
	)
	db := Open("rw")
	db.MustExec("CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	for i := 0; i < rowCount; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?, ?)", Int(int64(i)), Int(0), Int(0))
	}

	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup

	// Readers: aggregate invariant a == b on every row (the writer always
	// updates both columns in one statement, and updates are copy-on-write
	// row swaps, so a reader must never see them diverge).
	for r := 0; r < readers; r++ {
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
				res, err := s.Exec("SELECT COUNT(*) FROM t WHERE a <> b")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != 0 {
					errs <- fmt.Errorf("torn row visible: %d rows with a <> b", res.Rows[0][0].I)
					return
				}
				if _, err := s.Exec("EXPLAIN SELECT * FROM t WHERE k = 3"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// One writer bumping both columns of a random row per statement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		s := db.Session()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < writes; i++ {
			k := rng.Intn(rowCount)
			if _, err := s.Exec("UPDATE t SET a = a + 1, b = b + 1 WHERE k = ?", Int(int64(k))); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := db.MustExec("SELECT SUM(a), SUM(b) FROM t")
	if res.Rows[0][0].I != writes || res.Rows[0][1].I != writes {
		t.Fatalf("lost updates: SUM(a)=%d SUM(b)=%d, want %d", res.Rows[0][0].I, res.Rows[0][1].I, writes)
	}
	checkDBIndexes(t, db)
}

// TestConcurrentUniqueInsertOneWinner races goroutines inserting the
// same primary key: the exclusive write lock must admit exactly one
// winner per key, with every loser getting a constraint error and no
// partial row surviving.
func TestConcurrentUniqueInsertOneWinner(t *testing.T) {
	const (
		contenders = 8
		keys       = 20
	)
	db := Open("uniq")
	db.MustExec("CREATE TABLE t (k INTEGER PRIMARY KEY, who INTEGER)")
	for k := 0; k < keys; k++ {
		var (
			wins   atomic.Int64
			losses atomic.Int64
			wg     sync.WaitGroup
		)
		for c := 0; c < contenders; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s := db.Session()
				_, err := s.Exec("INSERT INTO t VALUES (?, ?)", Int(int64(k)), Int(int64(c)))
				switch {
				case err == nil:
					wins.Add(1)
				case strings.Contains(err.Error(), "unique constraint"):
					losses.Add(1)
				default:
					t.Errorf("key %d contender %d: unexpected error %v", k, c, err)
				}
			}(c)
		}
		wg.Wait()
		if wins.Load() != 1 || losses.Load() != contenders-1 {
			t.Fatalf("key %d: %d winners / %d losers, want 1 / %d", k, wins.Load(), losses.Load(), contenders-1)
		}
	}
	if got := db.MustExec("SELECT COUNT(*) FROM t").Rows[0][0].I; got != keys {
		t.Fatalf("table holds %d rows, want %d", got, keys)
	}
	checkDBIndexes(t, db)
}

// TestConcurrentExplainMatchesExecutor re-checks the EXPLAIN/executor
// plan agreement while many sessions execute the same indexed shapes
// concurrently through the shared statement cache: the planner must make
// the same choice on every goroutine, and the plan label reported by the
// executor must equal the one EXPLAIN renders.
func TestConcurrentExplainMatchesExecutor(t *testing.T) {
	db := figure4DB(t)
	shapes := []struct {
		query  string
		params []Value
		index  string // "" = scan
	}{
		{"SELECT * FROM Orders WHERE OrderID = ?", []Value{Int(3)}, "Orders_pk"},
		{"SELECT * FROM Orders WHERE ItemID = ?", []Value{Str("item-b")}, "idx_item"},
		{"SELECT * FROM Orders WHERE OrderID = ? AND ItemID = ?", []Value{Int(3), Str("item-d")}, "idx_order_item"},
		{"SELECT * FROM Orders WHERE Quantity = ?", []Value{Int(50)}, ""},
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.Session()
			var last StmtStats
			s.SetStatsSink(func(st StmtStats) {
				if st.Kind == "SELECT" {
					last = st
				}
			})
			for i := 0; i < 30; i++ {
				shape := shapes[i%len(shapes)]
				res, err := s.Exec("EXPLAIN "+shape.query, shape.params...)
				if err != nil {
					t.Errorf("EXPLAIN: %v", err)
					return
				}
				plan := strings.TrimSpace(res.Rows[0][0].String())
				if _, err := s.Exec(shape.query, shape.params...); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if last.Index != shape.index {
					t.Errorf("executor probed %q, want %q (query %s)", last.Index, shape.index, shape.query)
					return
				}
				if last.Plan != plan {
					t.Errorf("executor plan %q != EXPLAIN %q", last.Plan, plan)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cs := db.StmtCacheStats(); cs.Hits == 0 {
		t.Fatalf("concurrent identical statements produced no cache hits: %+v", cs)
	}
}

// TestConcurrentStatementCacheSafety hammers the parsed-statement cache
// from many goroutines mixing cache-hit SELECTs with DDL mid-flight;
// every statement must still parse and execute.
func TestConcurrentStatementCacheSafety(t *testing.T) {
	db := Open("cache")
	db.MustExec("CREATE TABLE t (x INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1), (2), (3)")

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < 50; i++ {
				if _, err := s.Exec("SELECT COUNT(*) FROM t WHERE x > ?", Int(0)); err != nil {
					t.Errorf("select: %v", err)
					return
				}
				if i%10 == 0 {
					// DDL on a private table: succeeds, and the hot SELECT
					// on t keeps its cached plan.
					name := fmt.Sprintf("g%d_%d", g, i)
					if _, err := s.Exec("CREATE TABLE " + name + " (y INTEGER)"); err != nil {
						t.Errorf("ddl: %v", err)
						return
					}
					if _, err := s.Exec("DROP TABLE " + name); err != nil {
						t.Errorf("drop: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	cs := db.StmtCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("repeated identical statement produced no cache hits: %+v", cs)
	}
}
