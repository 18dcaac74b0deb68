package dataset

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"wfsql/internal/sqldb"
)

func seedDB(t testing.TB) *sqldb.DB {
	t.Helper()
	db := sqldb.Open("src")
	db.MustExec("CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, Quantity INTEGER NOT NULL)")
	db.MustExec("INSERT INTO Items VALUES ('bolt', 15), ('nut', 3), ('screw', 2)")
	return db
}

func adapter(db *sqldb.DB) *DataAdapter {
	return &DataAdapter{
		DB:         db,
		SelectSQL:  "SELECT ItemID, Quantity FROM Items ORDER BY ItemID",
		Table:      "Items",
		KeyColumns: []string{"ItemID"},
	}
}

func TestFill(t *testing.T) {
	db := seedDB(t)
	ds := New()
	n, err := adapter(db).Fill(ds, "Items")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("filled %d rows", n)
	}
	tab := ds.Table("Items")
	if tab == nil || tab.Count() != 3 {
		t.Fatal("table missing or wrong size")
	}
	for _, r := range tab.Rows() {
		if r.State() != Unchanged {
			t.Fatalf("fill state: %s", r.State())
		}
	}
	// The cache holds no connection to the source: a source change is not
	// visible in the cache.
	db.MustExec("UPDATE Items SET Quantity = 999 WHERE ItemID = 'bolt'")
	r, _ := tab.Find(sqldb.Str("bolt"))
	if got := r.MustGet("Quantity").I; got != 15 {
		t.Fatalf("cache should be disconnected; got %d", got)
	}
}

func TestRowStateTransitions(t *testing.T) {
	db := seedDB(t)
	ds := New()
	adapter(db).Fill(ds, "Items")
	tab := ds.Table("Items")

	r, _ := tab.Find(sqldb.Str("nut"))
	if err := r.Set("Quantity", sqldb.Int(30)); err != nil {
		t.Fatal(err)
	}
	if r.State() != Modified {
		t.Fatalf("state after set: %s", r.State())
	}

	added, _ := tab.AddRow(sqldb.Str("washer"), sqldb.Int(9))
	if added.State() != Added {
		t.Fatalf("state after add: %s", added.State())
	}

	victim, _ := tab.Find(sqldb.Str("screw"))
	victim.Delete()
	if victim.State() != Deleted {
		t.Fatalf("state after delete: %s", victim.State())
	}
	if tab.Count() != 3 { // bolt, nut, washer
		t.Fatalf("live count: %d", tab.Count())
	}

	// Deleting an Added row removes it outright.
	added.Delete()
	if tab.Count() != 2 {
		t.Fatalf("live count after removing added: %d", tab.Count())
	}

	// Modifying a deleted row is rejected.
	if err := victim.Set("Quantity", sqldb.Int(1)); err == nil {
		t.Fatal("expected error modifying deleted row")
	}
}

func TestRejectChanges(t *testing.T) {
	db := seedDB(t)
	ds := New()
	adapter(db).Fill(ds, "Items")
	tab := ds.Table("Items")
	r, _ := tab.Find(sqldb.Str("bolt"))
	r.Set("Quantity", sqldb.Int(1000))
	tab.AddRow(sqldb.Str("new"), sqldb.Int(1))
	victim, _ := tab.Find(sqldb.Str("nut"))
	victim.Delete()

	tab.RejectChanges()
	if tab.Count() != 3 {
		t.Fatalf("count after reject: %d", tab.Count())
	}
	r, _ = tab.Find(sqldb.Str("bolt"))
	if r.MustGet("Quantity").I != 15 {
		t.Fatalf("value after reject: %v", r.MustGet("Quantity"))
	}
	if tab.HasChanges() {
		t.Fatal("changes should be gone after reject")
	}
}

func TestSynchronization(t *testing.T) {
	db := seedDB(t)
	ds := New()
	a := adapter(db)
	a.Fill(ds, "Items")
	tab := ds.Table("Items")

	// Tuple IUD on the cache.
	r, _ := tab.Find(sqldb.Str("bolt"))
	r.Set("Quantity", sqldb.Int(100))
	tab.AddRow(sqldb.Str("washer"), sqldb.Int(7))
	victim, _ := tab.Find(sqldb.Str("screw"))
	victim.Delete()

	n, err := a.Update(ds, "Items")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows written: %d", n)
	}

	// Source must reflect all three operations.
	res := db.MustExec("SELECT ItemID, Quantity FROM Items ORDER BY ItemID")
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].S+":"+row[1].String())
	}
	want := "bolt:100,nut:3,washer:7"
	if strings.Join(got, ",") != want {
		t.Fatalf("source after sync: %v", got)
	}

	// Cache states are accepted.
	if tab.HasChanges() {
		t.Fatal("changes should be accepted after update")
	}
	if tab.Count() != 3 {
		t.Fatalf("cache rows after accept: %d", tab.Count())
	}
}

func TestUpdateNoChangesIsNoop(t *testing.T) {
	db := seedDB(t)
	ds := New()
	a := adapter(db)
	a.Fill(ds, "Items")
	n, err := a.Update(ds, "Items")
	if err != nil || n != 0 {
		t.Fatalf("noop update: n=%d err=%v", n, err)
	}
}

func TestConcurrencyViolation(t *testing.T) {
	db := seedDB(t)
	ds := New()
	a := adapter(db)
	a.Fill(ds, "Items")
	tab := ds.Table("Items")
	r, _ := tab.Find(sqldb.Str("bolt"))
	r.Set("Quantity", sqldb.Int(50))

	// Someone deletes the source row out from under the cache.
	db.MustExec("DELETE FROM Items WHERE ItemID = 'bolt'")

	if _, err := a.Update(ds, "Items"); err == nil || !strings.Contains(err.Error(), "concurrency violation") {
		t.Fatalf("expected concurrency violation, got %v", err)
	}
	// The failed sync must not partially apply.
	res := db.MustExec("SELECT COUNT(*) FROM Items")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("source mutated by failed sync: %v", res.Rows[0][0])
	}
	// The cache still has its pending change for retry.
	if !tab.HasChanges() {
		t.Fatal("pending change lost")
	}
}

func TestUpdateIsAtomic(t *testing.T) {
	db := seedDB(t)
	ds := New()
	a := adapter(db)
	a.Fill(ds, "Items")
	tab := ds.Table("Items")
	// First change is fine; second violates the PK at the source.
	r, _ := tab.Find(sqldb.Str("nut"))
	r.Set("Quantity", sqldb.Int(77))
	tab.AddRow(sqldb.Str("bolt"), sqldb.Int(1)) // duplicate key at source

	if _, err := a.Update(ds, "Items"); err == nil {
		t.Fatal("expected PK violation")
	}
	res := db.MustExec("SELECT Quantity FROM Items WHERE ItemID = 'nut'")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("partial sync leaked: %v", res.Rows[0][0])
	}
}

func TestSelectAndFindAndRandomAccess(t *testing.T) {
	db := seedDB(t)
	ds := New()
	adapter(db).Fill(ds, "Items")
	tab := ds.Table("Items")

	big := tab.Select(func(r *DataRow) bool { return r.MustGet("Quantity").I > 2 })
	if len(big) != 2 {
		t.Fatalf("select: %d", len(big))
	}
	r, err := tab.Find(sqldb.Str("screw"))
	if err != nil || r == nil {
		t.Fatalf("find: %v %v", r, err)
	}
	missing, err := tab.Find(sqldb.Str("gone"))
	if err != nil || missing != nil {
		t.Fatalf("find missing: %v %v", missing, err)
	}
	row1, err := tab.Row(1)
	if err != nil || row1.MustGet("ItemID").S != "nut" {
		t.Fatalf("random access: %v %v", row1, err)
	}
	if _, err := tab.Row(99); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDataSetTables(t *testing.T) {
	ds := New()
	ds.AddTable(NewDataTable("A", "x"))
	ds.AddTable(NewDataTable("B", "y"))
	if ds.Table("a") == nil || ds.Table("B") == nil {
		t.Fatal("case-insensitive table lookup failed")
	}
	var names []string
	ds.EachTable(func(t *DataTable) { names = append(names, t.Name) })
	if len(names) != 2 || names[0] != "A" {
		t.Fatalf("table names: %v", names)
	}
}

func TestFindErrors(t *testing.T) {
	tab := NewDataTable("t", "a", "b")
	if _, err := tab.Find(sqldb.Int(1)); err == nil {
		t.Fatal("expected no-PK error")
	}
	tab.PrimaryKey = []string{"a"}
	if _, err := tab.Find(sqldb.Int(1), sqldb.Int(2)); err == nil {
		t.Fatal("expected arity error")
	}
}

// Property: for any sequence of cache edits, Update followed by a fresh
// Fill yields a cache equal to the edited one (source and cache converge).
func TestQuickSyncConvergence(t *testing.T) {
	f := func(ops []uint8) bool {
		db := sqldb.Open("q")
		db.MustExec("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER NOT NULL)")
		for i := 0; i < 5; i++ {
			db.MustExec("INSERT INTO T VALUES (?, ?)", sqldb.Int(int64(i)), sqldb.Int(int64(i*10)))
		}
		a := &DataAdapter{DB: db, SelectSQL: "SELECT K, V FROM T ORDER BY K", Table: "T", KeyColumns: []string{"K"}}
		ds := New()
		if _, err := a.Fill(ds, "T"); err != nil {
			return false
		}
		tab := ds.Table("T")
		nextKey := int64(100)
		for _, op := range ops {
			rows := tab.Rows()
			switch op % 3 {
			case 0: // modify
				if len(rows) > 0 {
					rows[int(op)%len(rows)].Set("V", sqldb.Int(int64(op)))
				}
			case 1: // add
				tab.AddRow(sqldb.Int(nextKey), sqldb.Int(int64(op)))
				nextKey++
			case 2: // delete
				if len(rows) > 0 {
					rows[int(op)%len(rows)].Delete()
				}
			}
		}
		if _, err := a.Update(ds, "T"); err != nil {
			return false
		}
		// Re-fill into a fresh DataSet and compare.
		ds2 := New()
		if _, err := a.Fill(ds2, "T"); err != nil {
			return false
		}
		t1, t2 := tab.Rows(), ds2.Table("T").Rows()
		if len(t1) != len(t2) {
			return false
		}
		seen := map[int64]int64{}
		for _, r := range t1 {
			seen[r.MustGet("K").I] = r.MustGet("V").I
		}
		for _, r := range t2 {
			if seen[r.MustGet("K").I] != r.MustGet("V").I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowStateStrings(t *testing.T) {
	states := map[RowState]string{
		Unchanged: "Unchanged", Added: "Added", Modified: "Modified", Deleted: "Deleted",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if RowState(99).String() != "Unknown" {
		t.Error("unknown state name")
	}
}

// TestValuesAndAllRows: EachRow walks every tracked row, Deleted ones
// included, with its state and current values; a removed row is gone.
func TestValuesAndAllRows(t *testing.T) {
	rows := func(tab *DataTable) (out []string) {
		tab.EachRow(func(s RowState, vals []sqldb.Value) { out = append(out, fmt.Sprint(s, vals)) })
		return out
	}
	tab := NewDataTable("t", "a", "b")
	r, _ := tab.AddRow(sqldb.Int(1), sqldb.Str("x"))
	if got := fmt.Sprint(rows(tab)); got != "[Added [1 x]]" {
		t.Fatalf("EachRow: %s", got)
	}
	r.Delete() // Added row removed outright
	if got := rows(tab); len(got) != 0 {
		t.Fatalf("EachRow after removing added row: %v", got)
	}
	tab2 := NewDataTable("t2", "a")
	r2, _ := tab2.AddRow(sqldb.Int(1))
	r2.AcceptRow()
	if r2.State() != Unchanged {
		t.Fatal("AcceptRow on added row")
	}
	r2.Delete()
	if got := fmt.Sprint(rows(tab2)); got != "[Deleted [1]]" {
		t.Fatalf("EachRow over a deleted row: %s", got)
	}
	r2.AcceptRow()
	if got := rows(tab2); len(got) != 0 {
		t.Fatalf("AcceptRow on deleted row should remove it: %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	ds := New()
	tab := NewDataTable("Items", "ItemID", "Stock")
	ds.AddTable(tab)
	tab.AddRow(sqldb.Str("bolt"), sqldb.Int(3))
	s := ds.String()
	if !strings.Contains(s, "Items(ItemID,Stock)") || !strings.Contains(s, "bolt,3[Added]") {
		t.Fatalf("rendering: %s", s)
	}
}

func TestAddRowArityError(t *testing.T) {
	tab := NewDataTable("t", "a", "b")
	if _, err := tab.AddRow(sqldb.Int(1)); err == nil {
		t.Fatal("arity mismatch must error")
	}
}
