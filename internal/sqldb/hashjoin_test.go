package sqldb

import (
	"fmt"
	"testing"
)

// A slotted plan keeps a hash join's row list, key dictionary and
// buckets from run to run and refills them per run (select.go,
// materialize). These tests hold the reused join to the slow path while
// the inner table changes under it, and check what the idle plan keeps.

// newJoinDB builds an outer table o of 10 rows and an inner table i of
// 30 whose join columns carry NULLs, INTEGERs that equal o's FLOATs (1
// and 1.0), and VARCHARs; no index covers a join column, so every join
// on them is hashed. i stays the larger table, so the join's plan holds
// while rows come and go.
func newJoinDB(t *testing.T) *DB {
	t.Helper()
	db := Open("joins")
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY, a INTEGER, f FLOAT, s VARCHAR)")
	db.MustExec("CREATE TABLE i (id INTEGER PRIMARY KEY, a INTEGER, f FLOAT, s VARCHAR, note VARCHAR)")
	s := db.Session()
	strs := []Value{Str("x"), Str("y"), Null(), Str("X"), Str("z")}
	for n := 0; n < 10; n++ {
		a := Int(int64(n % 4))
		if n%5 == 3 {
			a = Null()
		}
		if _, err := s.Exec("INSERT INTO o VALUES (?, ?, ?, ?)", Int(int64(n)), a, Float(float64(n%3)), strs[n%len(strs)]); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 30; n++ {
		a := Int(int64(n % 5))
		if n%7 == 2 {
			a = Null()
		}
		if _, err := s.Exec("INSERT INTO i VALUES (?, ?, ?, ?, ?)", Int(int64(100+n)), a, Float(float64(n%4)), strs[n*2%len(strs)], Str(fmt.Sprint("n", n%3))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

var joinQueries = []struct {
	sql   string
	param func(run int) Value
}{
	{"SELECT o.id, i.id, i.note FROM o JOIN i ON i.a = o.a WHERE o.id >= ? ORDER BY o.id, i.id",
		func(run int) Value { return Int(int64(run % 6)) }},
	{"SELECT o.id, i.id FROM o JOIN i ON i.a = o.f AND i.note <> ? ORDER BY o.id, i.id",
		func(run int) Value { return Str(fmt.Sprint("n", run%3)) }},
	{"SELECT o.id, i.id, i.f FROM o JOIN i ON i.s = o.s AND i.a = o.a WHERE i.f < ? ORDER BY o.id, i.id",
		func(run int) Value { return Float(float64(run%4) + 0.5) }},
	{"SELECT o.id, i.id, i.s FROM o JOIN i ON i.s = o.s AND i.f = o.a WHERE o.f <> ? ORDER BY o.id, i.id",
		func(run int) Value { return Int(int64(run % 3)) }},
	{"SELECT o.s, COUNT(i.id) FROM o JOIN i ON i.s = o.s WHERE i.a < 1 OR i.a <> ? GROUP BY o.s",
		func(run int) Value { return Int(int64(run % 5)) }},
}

// joinChurn is the write before run n: inserts of new and recurring keys,
// updates that move rows between buckets and to NULL, and deletes.
func joinChurn(n int) (string, []Value) {
	id := Int(int64(200 + n))
	switch n % 4 {
	case 0:
		return "INSERT INTO i VALUES (?, ?, ?, ?, ?)", []Value{id, Int(int64(n % 7)), Float(float64(n % 3)), Str([]string{"x", "y", "w"}[n%3]), Str("new")}
	case 1:
		return "UPDATE i SET a = ?, s = ? WHERE id = ?", []Value{Int(int64(n % 6)), Str("y"), Int(int64(100 + n%30))}
	case 2:
		return "UPDATE i SET a = NULL WHERE id = ?", []Value{Int(int64(100 + (n*7)%30))}
	default:
		return "DELETE FROM i WHERE id = ?", []Value{Int(int64(100 + (n*11)%30))}
	}
}

// TestHashJoinRunsMatchSlowPath runs each hashed join — inner and LEFT,
// one- and two-column keys, NULL keys, 1 against 1.0, VARCHAR keys, one
// in a subquery that builds it per outer row — 24 times on one prepared
// statement, with a changing parameter and a write
// to the inner table before every run. Some runs happen inside an open
// transaction, which must see its own writes, and some after its
// ROLLBACK. Every run equals the slow path row for row, one plan serves
// them all, and the idle plan holds no row.
func TestHashJoinRunsMatchSlowPath(t *testing.T) {
	defer func() { lendHook = nil }()
	for _, q := range joinQueries {
		db := newJoinDB(t)
		oracle := groupOracle(t, db)
		s := db.Session()
		exec := func(sql string, params ...Value) {
			t.Helper()
			if _, err := s.Exec(sql, params...); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		var idle *selectPlan
		lendHook = func(p *selectPlan, held bool) {
			if !held {
				idle = p
			}
		}
		ps, err := s.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		var compiles int64
		for run := 0; run < 24; run++ {
			switch run % 8 {
			case 0:
				if s.InTransaction() {
					exec("COMMIT")
				}
			case 2, 6:
				exec("BEGIN")
			case 5:
				exec("ROLLBACK")
			}
			sql, params := joinChurn(run)
			exec(sql, params...)
			params = []Value{q.param(run)}
			compiles -= db.StmtCacheStats().Compiles
			got, gotErr := ps.Exec(params...)
			compiles += db.StmtCacheStats().Compiles
			hashed := false
			for _, p := range idle.tree.plans {
				checkIdleJoins(t, p)
				hashed = hashed || len(p.srcs) == 2 && p.srcs[1].strategy == joinHash
			}
			if !hashed {
				t.Fatalf("%s: no hash join in the plan", q.sql)
			}
			want, wantErr := oracle(s, q.sql, params)
			if diff := sameRun(got, gotErr, want, wantErr); diff != "" {
				t.Fatalf("run %d %v (in transaction %v): %s\n  %s\n  pipeline %v\n  oracle   %v", run, params, s.InTransaction(), diff, q.sql, got, want)
			}
			if len(got.Rows) == 0 {
				t.Fatalf("run %d %v: no rows; the run checks nothing", run, params)
			}
		}
		if compiles != 1 {
			t.Errorf("%s: %d plans built for 24 runs, want one", q.sql, compiles)
		}
	}
}

// checkIdleJoins fails if an idle plan's join sources hold a row — in
// their row lists or buckets, within length or past it — or keep more
// than idleCap entries of either.
func checkIdleJoins(t *testing.T, p *selectPlan) {
	t.Helper()
	if p == nil {
		t.Fatal("no plan was given back")
	}
	for k := range p.srcs {
		src := &p.srcs[k]
		if src.join == nil {
			continue
		}
		for i, row := range src.all[:cap(src.all)] {
			if row != nil {
				t.Fatalf("idle join %s row list holds %v at %d", src.name, row, i)
			}
		}
		if cap(src.all) > idleCap {
			t.Errorf("idle join %s keeps a row list of %d", src.name, cap(src.all))
		}
		n := 0
		for _, b := range src.buckets {
			n += cap(b)
			for _, row := range b[:cap(b)] {
				if row != nil {
					t.Fatalf("idle join %s bucket holds %v", src.name, row)
				}
			}
		}
		if n > idleCap || len(src.hash) > idleCap || len(src.hash) != len(src.buckets) {
			t.Errorf("idle join %s keeps %d keys, %d buckets of %d rows in all", src.name, len(src.hash), len(src.buckets), n)
		}
	}
}
