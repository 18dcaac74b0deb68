package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// latestSnap is a snapshot that sees every committed version.
const latestSnap = math.MaxInt64 - 1

// checkIndexes is the index ≡ heap oracle. It re-keys the heap from
// scratch — a stable sort by the engine's own value order puts
// key-equal versions side by side, in heap order — and requires of
// every index that each group's bucket hold exactly the group (less
// aborted versions, which an index built after the abort never saw),
// that no bucket be empty or hold anything the heap dropped, and that
// a probe for the group's key return the rows a scan finds, at the
// latest snapshot and at each of snaps. The table must be quiescent.
func checkIndexes(t testing.TB, tbl *Table, snaps ...int64) {
	t.Helper()
	snaps = append(snaps, latestSnap)
	for _, idx := range tbl.indexes {
		bucketOf := make(map[*Row]string, len(tbl.rows))
		for k, b := range idx.buckets {
			if len(b) == 0 {
				t.Fatalf("%s: empty bucket %q", idx.Name, k)
			}
			for _, r := range b {
				if _, twice := bucketOf[r]; twice {
					t.Fatalf("%s: version %v is held twice", idx.Name, r.Values)
				}
				bucketOf[r] = k
			}
		}
		cmp := func(a, b *Row) int {
			for _, ci := range idx.colIdx {
				if c := sortCompare(a.Values[ci], b.Values[ci]); c != 0 {
					return c
				}
			}
			return 0
		}
		sorted := append([]*Row(nil), tbl.rows...)
		sort.SliceStable(sorted, func(i, j int) bool { return cmp(sorted[i], sorted[j]) < 0 })
		inHeap := 0
		for lo, hi := 0, 0; lo < len(sorted); lo = hi {
			for hi = lo; hi < len(sorted) && cmp(sorted[lo], sorted[hi]) == 0; hi++ {
			}
			var want []*Row
			var bucket string
			for _, r := range sorted[lo:hi] {
				k, ok := bucketOf[r]
				if ok {
					want, bucket = append(want, r), k
				} else if r.xmin.Load() != abortedStamp {
					t.Fatalf("%s: heap version %v is in no bucket", idx.Name, r.Values)
				}
			}
			inHeap += len(want)
			if len(want) > 0 && !slices.Equal(idx.buckets[bucket], want) {
				t.Fatalf("%s: bucket %q holds %d versions, the heap has %d of that key (or in another order)",
					idx.Name, bucket, len(idx.buckets[bucket]), len(want))
			}
			key := make([]Value, len(idx.colIdx))
			probeable := true // NULL = NULL is unknown: neither scan nor probe matches
			for i, ci := range idx.colIdx {
				key[i] = sorted[lo].Values[ci]
				probeable = probeable && !key[i].IsNull()
			}
			for _, snap := range snaps {
				var scan, probe []*Row
				for _, r := range sorted[lo:hi] {
					if probeable && visibleAt(r, snap, 0) {
						scan = append(scan, r)
					}
				}
				for _, r := range idx.appendLookup(nil, key) {
					if visibleAt(r, snap, 0) {
						probe = append(probe, r)
					}
				}
				if !slices.Equal(scan, probe) {
					t.Fatalf("%s: key %v at snapshot %d: scan finds %d rows, probe %d", idx.Name, key, snap, len(scan), len(probe))
				}
			}
		}
		if inHeap != len(bucketOf) {
			t.Fatalf("%s: holds %d versions, %d of them still in the heap", idx.Name, len(bucketOf), inHeap)
		}
	}
}

// checkDBIndexes runs the oracle over every table of a quiescent db.
func checkDBIndexes(t testing.TB, db *DB) {
	t.Helper()
	for _, tbl := range db.tables {
		checkIndexes(t, tbl)
	}
}

// TestCompositeIndexKeyIsInjective: two distinct (A, B) pairs whose
// NUL-joined renderings coincide are different keys.
func TestCompositeIndexKeyIsInjective(t *testing.T) {
	db := Open("inj")
	db.MustExec("CREATE TABLE T (A VARCHAR PRIMARY KEY, B VARCHAR PRIMARY KEY)")
	db.MustExec("INSERT INTO T VALUES (?, ?)", Str("a\x003:b"), Str("c"))
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", Str("a"), Str("b\x003:c")); err != nil {
		t.Fatalf("distinct composite key rejected: %v", err)
	}
	if _, err := db.Exec("INSERT INTO T VALUES (?, ?)", Str("a"), Str("b\x003:c")); err == nil {
		t.Fatal("duplicate composite key accepted")
	}
	res := db.MustExec("SELECT COUNT(*) FROM T WHERE A = ? AND B = ?", Str("a"), Str("b\x003:c"))
	if res.Rows[0][0].I != 1 {
		t.Fatalf("probe finds %v rows, want 1", res.Rows[0][0])
	}
	checkDBIndexes(t, db)
}

// TestVacuumPinnedSnapshotDoesNotRescan: while an older snapshot pins
// the dead versions, vacuum passes over the heap once per threshold's
// worth of new deaths, not once per statement; once the pin is gone the
// next pass reclaims everything. A pass that leaves pinned versions
// behind records how many in vacuumFloor, a new value every time as
// nothing is reclaimed in between, so the values seen count the passes.
func TestVacuumPinnedSnapshotDoesNotRescan(t *testing.T) {
	const rows, churn = 1024, 10 * vacuumDeadThreshold
	db := Open("pin")
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	s := db.Session()
	for i := 0; i < rows; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, 0)", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.table("t")
	floors := map[int64]bool{}
	update := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Exec("UPDATE t SET v = v + 1 WHERE id = ?", Int(int64(i))); err != nil {
				t.Fatal(err)
			}
			floors[tbl.vacuumFloor] = true
		}
	}

	pin := db.acquireSnapshot()
	update(churn)
	delete(floors, 0)
	if passes, want := len(floors), churn/vacuumDeadThreshold; passes < want-1 || passes > want {
		t.Fatalf("%d statements under a pinned snapshot: %d heap passes (floors %v), want %d", churn, passes, floors, want)
	}
	if dead := tbl.dead.Load(); dead != churn {
		t.Fatalf("dead = %d under the pin, want %d (nothing reclaimable)", dead, churn)
	}
	checkIndexes(t, tbl, pin)

	db.releaseSnapshot(pin)
	update(vacuumDeadThreshold)
	if dead, heap := tbl.dead.Load(), len(tbl.rows); dead >= vacuumDeadThreshold || heap != rows+int(dead) {
		t.Fatalf("after release: dead = %d, heap = %d versions for %d rows; want everything reclaimed", dead, heap, rows)
	}
	checkIndexes(t, tbl)
}

// TestVacuumReclaimsMassDeleteOnNextWrite: a statement cannot reclaim
// what it killed itself — its own snapshot still sees it — but that is
// no pin: the very next write to the table must, as a result table
// emptied between runs would otherwise drag its dead rows through every
// scan until 64 more versions died.
func TestVacuumReclaimsMassDeleteOnNextWrite(t *testing.T) {
	db := Open("mass")
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i < 4*vacuumDeadThreshold; i++ {
		db.MustExec("INSERT INTO t VALUES (?, 0)", Int(int64(i)))
	}
	tbl, _ := db.table("t")
	db.MustExec("DELETE FROM t")
	if heap := len(tbl.rows); heap != 4*vacuumDeadThreshold {
		t.Fatalf("heap = %d versions right after the DELETE, want them all still there", heap)
	}
	db.MustExec("INSERT INTO t VALUES (0, 1)")
	if heap, dead := len(tbl.rows), tbl.dead.Load(); heap != 1 || dead != 0 {
		t.Fatalf("after the next write: heap = %d versions, dead = %d; want 1 and 0", heap, dead)
	}
	checkIndexes(t, tbl)
}

// vacuumModel is the Go-side copy of the random interleaving's table.
type vacuumModel map[int64][2]Value // id -> (a, b)

func (m vacuumModel) clone() vacuumModel {
	c := make(vacuumModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// visibleRows renders what a snapshot sees of tbl, by id, as the model
// would.
func visibleRows(tbl *Table, snap int64) vacuumModel {
	m := vacuumModel{}
	for _, r := range tbl.rows {
		if visibleAt(r, snap, 0) {
			m[r.Values[0].I] = [2]Value{r.Values[1], r.Values[2]}
		}
	}
	return m
}

// TestVacuumIndexHeapOracle drives one writer — autocommit and explicit
// transactions, committed and rolled back — through inserts, PK and
// indexed-column updates, single and mass deletes, with snapshots held
// and released at random, far enough to vacuum many times: a few dead
// among many, more dead than alive and, on even seeds where column a
// has two values, many dead of one key in a bucket that stays wide.
// After every statement the indexes must equal the re-keyed heap, the
// session must see the model, and every held snapshot must still see
// the state it was taken at.
func TestVacuumIndexHeapOracle(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 100
	}
	vacuums := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open(fmt.Sprintf("oracle%d", seed))
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b VARCHAR)")
		db.MustExec("CREATE INDEX t_a ON t (a)")
		db.MustExec("CREATE INDEX t_ba ON t (b, a)")
		tbl, _ := db.table("t")
		s := db.Session()

		committed, pending := vacuumModel{}, vacuumModel{}
		type held struct {
			snap int64
			want vacuumModel
		}
		var pins []held
		nextID := int64(0)
		cardA := 12
		if seed%2 == 0 {
			cardA = 2
		}
		randA := func() Value { return Int(int64(rng.Intn(cardA))) }
		randB := func() Value {
			if rng.Intn(6) == 0 {
				return Null()
			}
			return Str(string(rune('p' + rng.Intn(5))))
		}
		someID := func() (int64, bool) {
			if len(pending) == 0 {
				return 0, false
			}
			ids := make([]int64, 0, len(pending))
			for id := range pending {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids[rng.Intn(len(ids))], true
		}
		exec := func(sql string, params ...Value) {
			t.Helper()
			if _, err := s.Exec(sql, params...); err != nil {
				t.Fatalf("seed %d: %s %v: %v", seed, sql, params, err)
			}
		}

		for step := 0; step < steps; step++ {
			heapBefore := len(tbl.rows)
			switch op := rng.Intn(100); {
			case len(pending) < vacuumDeadThreshold: // refill in one statement
				sql, params := "INSERT INTO t VALUES ", []Value(nil)
				for i := 0; i < 3*vacuumDeadThreshold/2; i++ {
					a, b := randA(), randB()
					sql += "(?, ?, ?),"
					params = append(params, Int(nextID), a, b)
					pending[nextID] = [2]Value{a, b}
					nextID++
				}
				exec(sql[:len(sql)-1], params...)
			case op < 30: // insert
				a, b := randA(), randB()
				exec("INSERT INTO t VALUES (?, ?, ?)", Int(nextID), a, b)
				pending[nextID] = [2]Value{a, b}
				nextID++
			case op < 50: // PK update of an indexed column
				id, _ := someID()
				a := randA()
				exec("UPDATE t SET a = ? WHERE id = ?", a, Int(id))
				pending[id] = [2]Value{a, pending[id][1]}
			case op < 62: // update through the secondary index
				a, b := randA(), randB()
				exec("UPDATE t SET b = ? WHERE a = ?", b, a)
				for id, v := range pending {
					if v[0].Equal(a) {
						pending[id] = [2]Value{v[0], b}
					}
				}
			case op < 74: // delete one
				id, _ := someID()
				exec("DELETE FROM t WHERE id = ?", Int(id))
				delete(pending, id)
			case op < 76: // delete all: more die than survive
				exec("DELETE FROM t")
				pending = vacuumModel{}
			case op < 84:
				if !s.InTransaction() {
					exec("BEGIN")
				}
			case op < 90:
				if s.InTransaction() {
					exec("COMMIT")
				}
			case op < 94:
				if s.InTransaction() {
					s.Rollback()
					pending = committed.clone()
				}
			case op < 97: // hold a snapshot
				if len(pins) < 3 {
					pins = append(pins, held{db.acquireSnapshot(), committed.clone()})
				}
			default: // release one
				if len(pins) > 0 {
					i := rng.Intn(len(pins))
					db.releaseSnapshot(pins[i].snap)
					pins = append(pins[:i], pins[i+1:]...)
				}
			}
			if !s.InTransaction() {
				committed = pending.clone()
			}
			if len(tbl.rows) < heapBefore {
				vacuums++
			}

			snaps := make([]int64, len(pins))
			for i, p := range pins {
				snaps[i] = p.snap
				if got := visibleRows(tbl, p.snap); !reflect.DeepEqual(got, p.want) {
					t.Fatalf("seed %d step %d: held snapshot %d sees %d rows, took %d: vacuum reclaimed a pinned version",
						seed, step, p.snap, len(got), len(p.want))
				}
			}
			checkIndexes(t, tbl, snaps...)
			if got := visibleRows(tbl, latestSnap); !reflect.DeepEqual(got, committed) {
				t.Fatalf("seed %d step %d: committed state has %d rows, model %d", seed, step, len(got), len(committed))
			}
			res, err := s.Exec("SELECT id, a, b FROM t")
			if err != nil {
				t.Fatal(err)
			}
			got := vacuumModel{}
			for _, row := range res.Rows {
				got[row[0].I] = [2]Value{row[1], row[2]}
			}
			if !reflect.DeepEqual(got, pending) {
				t.Fatalf("seed %d step %d: session sees %d rows, model %d", seed, step, len(got), len(pending))
			}
		}

		// With nothing pinned or open, one more threshold of churn
		// leaves no version behind but the last statements' own.
		if s.InTransaction() {
			exec("COMMIT")
		}
		for _, p := range pins {
			db.releaseSnapshot(p.snap)
		}
		exec("INSERT INTO t VALUES (?, 0, 'z')", Int(nextID))
		for i := 0; i < 2*vacuumDeadThreshold; i++ {
			exec("UPDATE t SET a = a + 1 WHERE id = ?", Int(nextID))
		}
		if dead, heap, live := tbl.dead.Load(), len(tbl.rows), tbl.RowCount(); dead >= vacuumDeadThreshold || heap != live+int(dead) {
			t.Fatalf("seed %d: quiescent table keeps %d versions for %d live rows and %d dead", seed, heap, live, dead)
		}
		checkIndexes(t, tbl)
	}
	if vacuums == 0 {
		t.Fatal("no statement vacuumed")
	}
}

// TestVacuumSpliceUnderConcurrentProbes: latch-free index probes run
// while a writer keeps vacuum splicing versions out of the very buckets
// they read. A probe copies its bucket under rowsMu's read half, so it
// must find its key's one visible row every time (and -race must stay
// quiet).
func TestVacuumSpliceUnderConcurrentProbes(t *testing.T) {
	const rows, updates, readers = 128, 40 * vacuumDeadThreshold, 4
	db := Open("splice")
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX t_grp ON t (grp)")
	for i := 0; i < rows; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?, 0)", Int(int64(i)), Int(int64(i%8)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.Session()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				byPK, err := s.Exec("SELECT v FROM t WHERE id = ?", Int(int64(i%rows)))
				if err != nil || len(byPK.Rows) != 1 {
					t.Errorf("probe id = %d: %d rows, err %v; want 1 row", i%rows, len(byPK.Rows), err)
					return
				}
				byGrp, err := s.Exec("SELECT id FROM t WHERE grp = ?", Int(int64(i%8)))
				if err != nil || len(byGrp.Rows) != rows/8 {
					t.Errorf("probe grp = %d: %d rows, err %v; want %d", i%8, len(byGrp.Rows), err, rows/8)
					return
				}
			}
		}(r)
	}
	w := db.Session()
	for i := 0; i < updates; i++ {
		if _, err := w.Exec("UPDATE t SET v = v + 1 WHERE id = ?", Int(int64(i*7%rows))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Readers' snapshots pinned a little of every pass; with them gone
	// the next passes leave only the last statements' own versions.
	for i := 0; i < 2*vacuumDeadThreshold; i++ {
		if _, err := w.Exec("UPDATE t SET v = v + 1 WHERE id = ?", Int(int64(i%rows))); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.table("t")
	if dead, heap := tbl.dead.Load(), len(tbl.rows); dead >= vacuumDeadThreshold || heap != rows+int(dead) {
		t.Fatalf("quiescent table keeps %d versions for %d rows, %d dead", heap, rows, dead)
	}
	checkIndexes(t, tbl)
}
