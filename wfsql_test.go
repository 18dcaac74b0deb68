package wfsql

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunningExampleEquivalence executes the paper's running example on
// all three product stacks against identical workloads and verifies the
// external effects are identical — the behavioural core of Figures 4, 6,
// and 8.
func TestRunningExampleEquivalence(t *testing.T) {
	w := Workload{Orders: 40, Items: 7, ApprovalPercent: 60, Seed: 42}

	var reference []string
	for _, stack := range Stacks() {
		stack := stack
		t.Run(stack.Figure+"-"+stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			if err := env.Run(stack, ResilienceConfig{}); err != nil {
				t.Fatal(err)
			}
			res := env.DB.MustExec(
				"SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
			var rows []string
			for _, row := range res.Rows {
				rows = append(rows, row[0].S+"|"+row[1].String()+"|"+row[2].S)
			}
			if len(rows) != env.ApprovedItemTypes() {
				t.Fatalf("%d confirmations for %d approved item types", len(rows), env.ApprovedItemTypes())
			}
			for _, row := range rows {
				if !strings.Contains(row, "CONFIRMED:") {
					t.Fatalf("unconfirmed row: %s", row)
				}
			}
			if reference == nil {
				reference = rows
				return
			}
			if strings.Join(reference, "\n") != strings.Join(rows, "\n") {
				t.Fatalf("stack produced different effects:\nwant:\n%s\ngot:\n%s",
					strings.Join(reference, "\n"), strings.Join(rows, "\n"))
			}
		})
	}
}

// TestEquivalenceAcrossSeeds sweeps workload seeds and shapes, checking
// the three stacks stay behaviourally equivalent everywhere — including
// degenerate workloads (nothing approved, everything approved, one item).
func TestEquivalenceAcrossSeeds(t *testing.T) {
	shapes := []Workload{
		{Orders: 1, Items: 1, ApprovalPercent: 100, Seed: 1},
		{Orders: 12, Items: 1, ApprovalPercent: 50, Seed: 2},
		{Orders: 25, Items: 8, ApprovalPercent: 0, Seed: 3}, // nothing approved
		{Orders: 25, Items: 8, ApprovalPercent: 100, Seed: 4},
		{Orders: 60, Items: 3, ApprovalPercent: 30, Seed: 5},
		{Orders: 60, Items: 20, ApprovalPercent: 80, Seed: 6},
	}
	for _, w := range shapes {
		w := w
		t.Run(fmt.Sprintf("orders=%d items=%d approve=%d", w.Orders, w.Items, w.ApprovalPercent), func(t *testing.T) {
			effects := func(s Stack) string {
				env := NewEnvironment(w)
				if err := env.Run(s, ResilienceConfig{}); err != nil {
					t.Fatal(err)
				}
				res := env.DB.MustExec(
					"SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
				var rows []string
				for _, row := range res.Rows {
					rows = append(rows, row[0].S+"|"+row[1].String()+"|"+row[2].S)
				}
				return strings.Join(rows, "\n")
			}
			bisOut, wfOut, oraOut := effects(StackBIS), effects(StackWF), effects(StackOracle)
			if bisOut != wfOut || bisOut != oraOut {
				t.Fatalf("stacks diverged:\nBIS:\n%s\nWF:\n%s\nOracle:\n%s", bisOut, wfOut, oraOut)
			}
		})
	}
}

func TestAdapterVariant(t *testing.T) {
	env := NewEnvironment(DefaultWorkload())
	if err := env.RunAdapterVariant(); err != nil {
		t.Fatal(err)
	}
	if env.Bus.Calls() == 0 {
		t.Fatal("adapter variant made no bus calls")
	}
}

func TestSeedWorkloadShape(t *testing.T) {
	w := Workload{Orders: 100, Items: 5, ApprovalPercent: 50, Seed: 7,
		PayloadColumns: 2, PayloadWidth: 16}
	env := NewEnvironment(w)
	res := env.DB.MustExec("SELECT COUNT(*) FROM Orders")
	if res.Rows[0][0].I != 100 {
		t.Fatalf("orders: %v", res.Rows[0][0])
	}
	res = env.DB.MustExec("SELECT COUNT(DISTINCT ItemID) FROM Orders")
	if res.Rows[0][0].I > 5 || res.Rows[0][0].I < 1 {
		t.Fatalf("item types: %v", res.Rows[0][0])
	}
	res = env.DB.MustExec("SELECT Payload0 FROM Orders WHERE OrderID = 1")
	if len(res.Rows[0][0].S) != 16 {
		t.Fatalf("payload width: %d", len(res.Rows[0][0].S))
	}
	// Deterministic: same seed, same data.
	env2 := NewEnvironment(w)
	a := env.DB.MustExec("SELECT SUM(Quantity) FROM Orders").Rows[0][0]
	b := env2.DB.MustExec("SELECT SUM(Quantity) FROM Orders").Rows[0][0]
	if a.I != b.I {
		t.Fatalf("non-deterministic workload: %v vs %v", a, b)
	}
}

func TestTables(t *testing.T) {
	t1 := TableI()
	if !strings.Contains(t1, "TABLE I") || !strings.Contains(t1, "BPEL") {
		t.Fatalf("Table I: %s", t1)
	}
	t2 := TableII()
	if !strings.Contains(t2, "TABLE II") || !strings.Contains(t2, "Only workarounds possible") {
		t.Fatalf("Table II: %s", t2)
	}
	text, failures := VerifyTableII()
	if len(failures) != 0 {
		t.Fatalf("conformance failures: %v", failures)
	}
	if text == "" {
		t.Fatal("empty verified table")
	}
}

func TestDefaultWorkloadFallback(t *testing.T) {
	env := NewEnvironment(Workload{})
	if env.Workload.Orders != 6 {
		t.Fatalf("default workload: %+v", env.Workload)
	}
}

func TestResetConfirmations(t *testing.T) {
	env := NewEnvironment(DefaultWorkload())
	if err := env.Run(StackWF, ResilienceConfig{}); err != nil {
		t.Fatal(err)
	}
	if env.ConfirmationCount() == 0 {
		t.Fatal("no confirmations recorded")
	}
	env.ResetConfirmations()
	if env.ConfirmationCount() != 0 {
		t.Fatal("reset failed")
	}
}

// TestLargeWorkloadSoak runs the running example at a scale two orders of
// magnitude beyond the paper's six-order figure, checking exact
// aggregation totals against an independent SQL computation.
func TestLargeWorkloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	w := Workload{Orders: 5000, Items: 40, ApprovalPercent: 55, Seed: 123}
	env := NewEnvironment(w)
	if err := env.Run(StackWF, ResilienceConfig{}); err != nil {
		t.Fatal(err)
	}
	// Every confirmation must equal the independently computed total
	// (joined through a table computed from the source data).
	env.DB.MustExec(`CREATE TABLE ApprovedTotals AS
		SELECT ItemID, SUM(Quantity) AS Total FROM Orders
		WHERE Approved = TRUE GROUP BY ItemID`)
	res := env.DB.MustExec(`
		SELECT c.ItemID, c.Quantity, t.Total FROM OrderConfirmations c
		JOIN ApprovedTotals t ON c.ItemID = t.ItemID`)
	if len(res.Rows) != env.ApprovedItemTypes() {
		t.Fatalf("confirmations: %d, want %d", len(res.Rows), env.ApprovedItemTypes())
	}
	for _, row := range res.Rows {
		if row[1].I != row[2].I {
			t.Fatalf("item %s: confirmed %d, actual total %d", row[0].S, row[1].I, row[2].I)
		}
	}
	if env.Supplier.Ordered("item000") == 0 {
		t.Fatal("supplier saw no orders for a common item")
	}
}
