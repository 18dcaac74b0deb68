package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWritersReplayOnReplica: four sessions run autocommit and
// explicit-transaction DML on a shared table (one hot row included) and
// on tables of their own, while a fifth creates and drops a table of its
// own. The change stream a sink records in delivery order must be dense
// and increasing, and an Applier fed it must reproduce the primary: the
// writer lock (or the exclusive engine lock) is the one critical section
// that orders commit stamps, sequence numbers and sink delivery.
func TestConcurrentWritersReplayOnReplica(t *testing.T) {
	const writers, rounds = 4, 120
	primary := Open("p")
	primary.MustExec("CREATE TABLE shared (id INTEGER PRIMARY KEY, w INTEGER, v INTEGER)")
	primary.MustExec("INSERT INTO shared VALUES (0, -1, 0)")
	for w := 0; w < writers; w++ {
		primary.MustExec(fmt.Sprintf("CREATE TABLE own%d (id INTEGER PRIMARY KEY, v INTEGER)", w))
	}
	script := primary.Dump()
	var mu sync.Mutex
	var changes []Change
	primary.SetChangeSink(func(c Change) {
		mu.Lock()
		changes = append(changes, c)
		mu.Unlock()
	})

	var wg sync.WaitGroup
	// Each writer counts into its own slot, read after wg.Wait.
	commits, rollbacks, conflicts := make([]int, writers), make([]int, writers), make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := primary.Session()
			own := fmt.Sprintf("own%d", w)
			exec := func(sql string, params ...Value) error {
				_, err := s.Exec(sql, params...)
				if errors.Is(err, ErrWriteConflict) {
					conflicts[w]++
				} else if err != nil {
					t.Errorf("writer %d: %s: %v", w, sql, err)
				}
				return err
			}
			for i := 0; i < rounds; i++ {
				id := Int(int64(w*rounds + i + 1))
				exec("INSERT INTO shared VALUES (?, ?, 0)", id, Int(int64(w)))
				exec("INSERT INTO "+own+" VALUES (?, ?)", id, Int(int64(i)))
				exec("UPDATE shared SET v = v + 1 WHERE id = 0")
				if i%3 != 0 {
					continue
				}
				exec("BEGIN")
				err := exec("UPDATE shared SET v = v + ? WHERE w = ?", Int(int64(i)), Int(int64(w)))
				if err == nil {
					err = exec("UPDATE shared SET v = v + 1 WHERE id = 0")
				}
				if err == nil {
					err = exec("DELETE FROM "+own+" WHERE id = ?", id)
				}
				if err != nil || i%2 == 1 {
					exec("ROLLBACK")
					rollbacks[w]++
				} else {
					exec("COMMIT")
					commits[w]++
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := primary.Session()
		exec := func(sql string, params ...Value) {
			if _, err := s.Exec(sql, params...); err != nil {
				t.Errorf("ddl session: %s: %v", sql, err)
			}
		}
		for i := 0; i < rounds/4; i++ {
			exec("CREATE TABLE ddl (id INTEGER PRIMARY KEY)")
			exec("INSERT INTO ddl VALUES (?)", Int(int64(i)))
			exec("DROP TABLE ddl")
		}
		exec("CREATE TABLE ddl (id INTEGER PRIMARY KEY)")
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 0; w < writers; w++ {
		if commits[w] == 0 || rollbacks[w] == 0 {
			t.Fatalf("writer %d committed %d and rolled back %d explicit transactions, want some of each", w, commits[w], rollbacks[w])
		}
	}

	for i, c := range changes {
		if c.Seq != int64(i+1) {
			t.Fatalf("change %d of %d delivered with seq %d: the stream is not dense and increasing", i+1, len(changes), c.Seq)
		}
	}
	replica := Open("r")
	if _, err := replica.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	ap := NewApplier(replica, 0)
	for _, c := range changes {
		if err := ap.Apply(c); err != nil {
			t.Fatalf("replay seq %d %s %v: %v", c.Seq, c.SQL, c.Params, err)
		}
	}
	if got, want := replica.Dump(), primary.Dump(); got != want {
		t.Fatalf("replica ends in\n%s\nwant\n%s", got, want)
	}
	t.Logf("%d changes replayed; write conflicts per writer %v", len(changes), conflicts)
	checkDBIndexes(t, primary)
	checkDBIndexes(t, replica)
}

// BenchmarkTwoWriters times two sessions inserting concurrently, b.N rows
// between them, into tables of their own (disjoint) or into one table
// (same). The writer lock runs one writer statement at a time either way;
// the pair is what a per-table lock would be measured against.
//
//	go test -run '^$' -bench TwoWriters -cpu 2 ./internal/sqldb/
func BenchmarkTwoWriters(b *testing.B) {
	for _, tc := range []struct {
		name   string
		tables [2]string
	}{
		{"disjoint", [2]string{"t0", "t1"}},
		{"same", [2]string{"t", "t"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := Open("writers")
			for _, name := range tc.tables {
				if !db.HasTable(name) {
					db.MustExec("CREATE TABLE " + name + " (id INTEGER PRIMARY KEY, v INTEGER)")
				}
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.Session()
					sql := "INSERT INTO " + tc.tables[w] + " VALUES (?, ?)"
					for i := w; i < b.N; i += 2 {
						if _, err := s.Exec(sql, Int(int64(i)), Int(int64(w))); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "stmts/s")
		})
	}
}
