package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// The group table (select.go) keys one VARCHAR column on its string and
// everything else on appendValueKey. These tests hold it to the key
// semantics of the slow paths: slowSelect's bins, which are
// appendValueKey of every GROUP BY value, evaluated by the test-only
// interpreter.

// newGroupDB builds a table whose group keys collide in every way the
// key encoding distinguishes or merges: NULLs in every column, 1 and 1.0,
// −0.0 and 0.0, NaNs, booleans, and strings that differ only in case.
func newGroupDB(t *testing.T) *DB {
	t.Helper()
	db := Open("groups")
	db.MustExec("CREATE TABLE g (id INTEGER PRIMARY KEY, k INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, q INTEGER)")
	negZero, nan := Float(math.Copysign(0, -1)), Float(math.NaN())
	floats := []Value{Float(1), negZero, Null(), nan, Float(0), Float(2.5), nan, Float(1), negZero, Float(-1)}
	strs := []Value{Str("a"), Str("A"), Str("ab"), Null(), Str("AB"), Str("a"), Str("1"), Str(""), Str("Ab"), Str("A")}
	s := db.Session()
	for i := 0; i < 40; i++ {
		k := Int(int64(i % 4))
		if i%7 == 3 {
			k = Null()
		}
		b := Bool(i%3 == 0)
		if i%11 == 5 {
			b = Null()
		}
		q := Int(int64(i*5%9 - 2))
		if i%13 == 4 {
			q = Null()
		}
		if _, err := s.Exec("INSERT INTO g VALUES (?, ?, ?, ?, ?, ?)", Int(int64(i)), k, floats[i%len(floats)], strs[i*3%len(strs)], b, q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// groupOracle runs q through slowSelect with params, in the session's
// statement, as a native procedure.
func groupOracle(t *testing.T, db *DB) func(s *Session, q string, params []Value) (*Result, error) {
	var stmt *SelectStmt
	var bound []Value
	db.RegisterProcedure("group_oracle", func(s *Session, _ []Value) (*Result, error) {
		return s.slowSelect(stmt, &env{session: s, params: bound})
	})
	return func(s *Session, q string, params []Value) (*Result, error) {
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmt, bound = st.(*SelectStmt), params
		return s.Exec("CALL group_oracle()")
	}
}

var groupQueries = []struct {
	sql    string
	params []Value
}{
	{"SELECT k, COUNT(*), SUM(q), AVG(q), MIN(s), MAX(f) FROM g WHERE k >= ? GROUP BY k", []Value{Int(1)}},
	{"SELECT k, COUNT(*), SUM(q) FROM g WHERE k <> ? GROUP BY k", []Value{Int(2)}},
	{"SELECT f, COUNT(*), SUM(f), SUM(q), MIN(k) FROM g WHERE f >= ? GROUP BY f", []Value{Int(0)}},
	{"SELECT f, COUNT(q), MAX(s) FROM g WHERE f < ? OR f IS NULL GROUP BY f", []Value{Int(1)}},
	{"SELECT f, COUNT(*) FROM g GROUP BY f", nil},
	{"SELECT s, COUNT(*), SUM(q), MIN(f) FROM g GROUP BY s", nil},
	{"SELECT s, COUNT(DISTINCT k), SUM(DISTINCT q) FROM g WHERE q > ? GROUP BY s", []Value{Int(0)}},
	{"SELECT b, COUNT(*), SUM(k), MAX(s) FROM g WHERE b = ? OR k = ? GROUP BY b", []Value{Bool(true), Int(1)}},
	{"SELECT k, s, COUNT(*), SUM(q) FROM g GROUP BY k, s", nil},
	{"SELECT f, k, COUNT(*) FROM g WHERE k > ? GROUP BY f, k", []Value{Int(0)}},
	{"SELECT s, b, f, COUNT(*) FROM g GROUP BY 1, 2, 3", nil},
	{"SELECT k + 0.5, COUNT(*) FROM g GROUP BY 1", nil},
	{"SELECT f + k, COUNT(*), SUM(f), MAX(q) FROM g GROUP BY 1", nil},
	{"SELECT s || k AS mixed, COUNT(*), SUM(q) FROM g GROUP BY 1", nil},
	{"SELECT q % ?, COUNT(*), MIN(s) FROM g GROUP BY 1", []Value{Int(3)}},
	{"SELECT COUNT(*), SUM(q), MIN(f), MAX(s) FROM g WHERE k > ?", []Value{Int(1)}},
	{"SELECT COUNT(*), SUM(q), k FROM g WHERE k > ?", []Value{Int(9)}},
	{"SELECT k, COUNT(*) FROM g WHERE q > ? GROUP BY k", []Value{Int(5)}},
	{"SELECT DISTINCT COUNT(*) FROM g GROUP BY s", nil},
	{"SELECT s, SUM(s) FROM g GROUP BY s", nil},
	{"SELECT a.k, b.s, COUNT(*), SUM(b.q) FROM g a JOIN g b ON a.k = b.k WHERE a.s = ? GROUP BY a.k, b.s", []Value{Str("a")}},
	{"SELECT b.f, COUNT(*), MIN(a.s) FROM g a JOIN g b ON a.id = b.q GROUP BY b.f", nil},
}

// TestGroupedAggregatesMatchSlowPath runs every grouped statement three
// ways — a plan built for the execution, the cached plan's first run and
// its re-bound second run — against the slow path, row for row in
// first-seen group order.
func TestGroupedAggregatesMatchSlowPath(t *testing.T) {
	db := newGroupDB(t)
	oracle := groupOracle(t, db)
	s := db.Session()
	for _, c := range groupQueries {
		want, wantErr := oracle(s, c.sql, c.params)
		for run := 0; run < 3; run++ {
			got, gotErr := s.Exec(c.sql, c.params...)
			if run == 0 {
				got, gotErr = freshExec(s, c.sql, c.params, nil)
			}
			if diff := sameRun(got, gotErr, want, wantErr); diff != "" {
				t.Errorf("run %d: %s\n  %s\n  pipeline %v\n  oracle   %v", run, diff, c.sql, got, want)
			}
		}
	}
}

// TestGroupTableLeavesNothingBetweenRuns runs one slotted grouped
// statement again and again with parameters that change its groups, and
// between them runs that fail mid-scan (a division by zero on the row
// whose q equals the parameter: the second, sixth or seventh). Every run
// must equal the slow path, and the plan given back to its slot must
// hold no group, no row and no sum.
func TestGroupTableLeavesNothingBetweenRuns(t *testing.T) {
	db := newGroupDB(t)
	oracle := groupOracle(t, db)
	const text = "SELECT s, k, COUNT(*), SUM(q), MIN(f) FROM g WHERE 6 / (q - ?) <> ? GROUP BY s, k"
	const oneCol = "SELECT k, COUNT(*), SUM(q) FROM g WHERE 6 / (q - ?) <> ? GROUP BY k"
	var idle []*selectPlan
	lendHook = func(p *selectPlan, held bool) {
		if !held {
			idle = append(idle, p)
		}
	}
	defer func() { lendHook = nil }()
	s := db.Session()
	for _, sql := range []string{text, oneCol} {
		ps, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		var compiles int64
		for i, params := range [][]Value{
			{Int(100), Int(1)}, {Int(3), Int(0)}, {Int(100), Int(-1)}, {Int(5), Int(0)},
			{Int(100), Int(6)}, {Int(1), Int(1)}, {Int(100), Int(0)},
		} {
			idle, compiles = idle[:0], compiles-db.StmtCacheStats().Compiles
			got, gotErr := ps.Exec(params...)
			compiles += db.StmtCacheStats().Compiles
			want, wantErr := oracle(s, sql, params)
			if diff := sameRun(got, gotErr, want, wantErr); diff != "" {
				t.Errorf("run %d %v: %s\n  %s\n  pipeline %v\n  oracle   %v", i, params, diff, sql, got, want)
			}
			if (gotErr != nil) != (params[0].I != 100) {
				t.Errorf("run %d %v: error %v, want one exactly when a row's q is %d", i, params, gotErr, params[0].I)
			}
			for _, p := range idle {
				checkIdleGroups(t, p)
			}
		}
		if compiles != 1 {
			t.Errorf("%s: %d plans built for 7 runs, want the slot's plan reused", sql, compiles)
		}
	}
}

// TestIdlePlanDropsALargeGroupTable: a cached plan keeps its group
// table's memory for the next run only while the last run made at most
// idleCap bins; after a run over more, the idle plan holds no slab and
// no map.
func TestIdlePlanDropsALargeGroupTable(t *testing.T) {
	db := Open("manygroups")
	db.MustExec("CREATE TABLE m (id INTEGER PRIMARY KEY, s VARCHAR)")
	s := db.Session()
	for i := 0; i < idleCap+100; i++ {
		if _, err := s.Exec("INSERT INTO m VALUES (?, ?)", Int(int64(i)), Str(fmt.Sprint("k", i))); err != nil {
			t.Fatal(err)
		}
	}
	var idle *selectPlan
	lendHook = func(p *selectPlan, held bool) {
		if !held {
			idle = p
		}
	}
	defer func() { lendHook = nil }()
	const sql = "SELECT s, COUNT(*) FROM m WHERE id < ? GROUP BY s"
	for _, c := range []struct {
		bins int
		kept bool
	}{{10, true}, {idleCap, true}, {idleCap + 100, false}, {10, true}} {
		res, err := s.Exec(sql, Int(int64(c.bins)))
		if err != nil || len(res.Rows) != c.bins {
			t.Fatalf("%d groups: %v, %v", c.bins, res, err)
		}
		checkIdleGroups(t, idle)
		g := &idle.groups
		if kept := cap(g.first) > 0 && cap(g.aggs) > 0 && g.strs != nil; kept != c.kept {
			t.Errorf("after %d groups: idle plan keeps %d first-row values, %d slots, map %v; want kept %v", c.bins, cap(g.first), cap(g.aggs), g.strs != nil, c.kept)
		}
	}
}

// checkIdleGroups fails if an idle plan's group table still holds a
// group, a row version's values or an accumulator.
func checkIdleGroups(t *testing.T, p *selectPlan) {
	t.Helper()
	g := &p.groups
	if g.n != 0 || len(g.first) != 0 || len(g.aggs) != 0 || len(g.strs)+len(g.keys) != 0 || p.out != nil {
		t.Fatalf("idle plan holds %d groups, %d first-row values, %d slots, %d keys", g.n, len(g.first), len(g.aggs), len(g.strs)+len(g.keys))
	}
	for _, v := range g.first[:cap(g.first)] {
		if v != (Value{}) {
			t.Fatalf("idle plan's first-row slab still holds %v", v)
		}
	}
	for _, a := range g.aggs[:cap(g.aggs)] {
		if a.n != 0 || a.fi != 0 || a.ff != 0 || a.best != (Value{}) || a.seen != nil || a.err != nil || a.bad || a.floats {
			t.Fatalf("idle plan's aggregate slab still holds %+v", a)
		}
	}
}

// FuzzGroupKey: for any sequence of one-column keys, and for the same
// values paired into two-column keys, groupOf numbers its bins exactly as
// a map keyed on appendValueKey does, in first-seen order.
// Each key is nine bytes: a kind and a little-endian payload — the word
// of an INTEGER, BOOLEAN or FLOAT, a short string's bytes.
func FuzzGroupKey(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 2, 0, 0, 0, 0, 0, 0xf8, 0xff, 4, 2, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 'a', 0, 0, 0, 0, 0, 0, 0, 3, 'A', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, '0', 'n', 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []Value
		for ; len(data) >= 9; data = data[9:] {
			w := binary.LittleEndian.Uint64(data[1:9])
			v := Value{K: Kind(data[0] % 5), I: int64(w)}
			if v.K == KindString {
				v.I, v.S = 0, strings.TrimRight(string(data[1:9]), "\x00")
			}
			if v.K == KindNull {
				v.I = 0
			}
			vals = append(vals, v)
		}
		// One plan per key width, reused as a slot reuses it: each check
		// ends in reset.
		plans := [3]*selectPlan{nil, {groupBy: []getter{{col: 0}}}, {groupBy: []getter{{col: 0}, {col: 1}}}}
		check := func(what string, keys [][]Value) {
			want := map[string]int{}
			for i, key := range keys {
				enc := string(appendRowKey(nil, key))
				w, ok := want[enc]
				if !ok {
					w = len(want)
					want[enc] = w
				}
				p := plans[len(key)]
				p.env.row = key
				if g, err := p.groupOf(); err != nil || g != w {
					t.Fatalf("%s key %d %v: group %d (%v), appendValueKey's %d (keys %v)", what, i, key, g, err, w, keys)
				}
			}
			if len(keys) == 0 {
				return
			}
			table := &plans[len(keys[0])].groups
			table.reset()
			if table.n != 0 || len(table.strs)+len(table.keys) != 0 {
				t.Fatalf("%s: reset left %d bins", what, table.n)
			}
		}
		var one, two [][]Value
		for i, v := range vals {
			one = append(one, []Value{v})
			if i%2 == 1 {
				two = append(two, []Value{vals[i-1], v})
			}
		}
		check("one-column", one)
		check("two-column", two)
		check("one-column again", one)
	})
}
