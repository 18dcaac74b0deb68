package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wfsql/internal/sqldb"
)

// TestDataTableMatchesFilteredRows checks the table's live-row surface —
// Count, Row(i) and its range errors, Rows, Select and Find, all answered
// from the deleted-row counter without copying — against the obvious
// reference: AllRows filtered by state. Each seed runs a random sequence
// of AddRow, Set, Delete, AcceptRow, AcceptChanges and RejectChanges. Row
// handles are drawn from every row ever added, so rows already removed
// from the table (a deleted Added row, an accepted deletion, a rejected
// addition) are operated on too and must not move the counter.
func TestDataTableMatchesFilteredRows(t *testing.T) {
	const seeds, steps = 2000, 40
	var checks, walks int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewDataTable("T", "id", "v")
		tab.PrimaryKey = []string{"id"}
		var handles []*DataRow
		for step := 0; step < steps; step++ {
			var r *DataRow
			if len(handles) > 0 {
				r = handles[rng.Intn(len(handles))]
			}
			op := rng.Intn(10)
			switch {
			case op < 4 || r == nil:
				nr, err := tab.AddRow(sqldb.Int(int64(rng.Intn(6))), sqldb.Int(int64(step)))
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, nr)
			case op == 4:
				r.Set("v", sqldb.Int(-int64(step))) // refused on a Deleted row
			case op < 7:
				r.Delete()
			case op == 7:
				r.AcceptRow()
			case op == 8:
				tab.AcceptChanges()
			default:
				tab.RejectChanges()
			}
			if tab.deleted > 0 {
				walks++
			}
			checks++
			if d := liveRowsDiffer(tab, rng); d != "" {
				t.Fatalf("seed %d step %d (op %d): %s\n  table %s", seed, step, op, d, tab)
			}
		}
	}
	if walks < checks/10 {
		t.Fatalf("degenerate: %d of %d checks had a Deleted row to walk past", walks, checks)
	}
}

// liveRowsDiffer compares the table's answers with its tracked rows
// filtered by state.
func liveRowsDiffer(tab *DataTable, rng *rand.Rand) string {
	var live []*DataRow
	for _, r := range tab.rows {
		if r.State() != Deleted {
			live = append(live, r)
		}
	}
	if n := tab.Count(); n != len(live) {
		return fmt.Sprintf("Count %d, want %d", n, len(live))
	}
	for i, want := range live {
		if got, err := tab.Row(i); got != want || err != nil {
			return fmt.Sprintf("Row(%d) = %p, %v; want %p", i, got, err, want)
		}
	}
	for _, i := range []int{-1, len(live), len(live) + 1} {
		want := fmt.Sprintf("dataset: row %d out of range (0..%d)", i, len(live)-1)
		if got, err := tab.Row(i); got != nil || err == nil || err.Error() != want {
			return fmt.Sprintf("Row(%d) = %p, %v; want error %q", i, got, err, want)
		}
	}
	if got := tab.Rows(); !reflect.DeepEqual(got, live) {
		return fmt.Sprintf("Rows %v, want %v", got, live)
	}
	even := func(r *DataRow) bool { return r.MustGet("v").I%2 == 0 }
	var selected []*DataRow
	for _, r := range live {
		if even(r) {
			selected = append(selected, r)
		}
	}
	if got := tab.Select(even); !reflect.DeepEqual(got, selected) {
		return fmt.Sprintf("Select %v, want %v", got, selected)
	}
	key := sqldb.Int(int64(rng.Intn(7)))
	var found *DataRow
	for _, r := range live {
		if r.MustGet("id").Equal(key) {
			found = r
			break
		}
	}
	if got, err := tab.Find(key); got != found || err != nil {
		return fmt.Sprintf("Find(%v) = %p, %v; want %p", key, got, err, found)
	}
	return ""
}
