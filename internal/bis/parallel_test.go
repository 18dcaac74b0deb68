package bis

import (
	"fmt"
	"sync"
	"testing"

	"wfsql/internal/engine"
)

// TestParallelFlowBranchesShareInstanceSession pins the
// one-session-per-instance contract under BPEL Flow concurrency: all SQL
// activities of one instance route through host.Instance.SQL, so parallel
// Flow branches issue their statements on the *same* session from
// different goroutines. The session's internal mutex must serialize them
// without losing statements or corrupting transaction state — this test
// is only meaningful under -race.
func TestParallelFlowBranchesShareInstanceSession(t *testing.T) {
	const branches = 8
	for _, mode := range []engine.TransactionMode{engine.LongRunning, engine.ShortRunning} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			db := ordersDB()
			e, _ := newEngine(db)

			var children []engine.Activity
			for i := 0; i < branches; i++ {
				children = append(children, NewSQL(fmt.Sprintf("ins%d", i), "DS", fmt.Sprintf(
					"INSERT INTO OrderConfirmations VALUES ('branch%d', %d, 'ok')", i, i)))
				children = append(children, NewSQL(fmt.Sprintf("sel%d", i), "DS",
					"SELECT COUNT(*) FROM Orders WHERE Approved = TRUE"))
			}
			p := NewProcess("parflow").
				Mode(mode).
				DataSourceVariable("DS", "orderdb").
				Body(engine.NewFlow("fanout", children...)).
				Build()
			d, err := e.Deploy(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(nil); err != nil {
				t.Fatal(err)
			}
			r := db.MustExec("SELECT COUNT(*) FROM OrderConfirmations")
			if got := r.Rows[0][0].I; got != branches {
				t.Fatalf("%v: %d confirmations, want %d (parallel branches lost statements)", mode, got, branches)
			}
		})
	}
}

// TestParallelInstancesDistinctSessions runs many BIS instances of the
// same deployed process concurrently — the scheduler's execution shape.
// Each instance gets its own state (and thus its own sessions), and the
// short-running process-wide transactions must commit exactly the rows
// their instance wrote.
func TestParallelInstancesDistinctSessions(t *testing.T) {
	const instances = 8
	db := ordersDB()
	e, _ := newEngine(db)

	p := NewProcess("parinst").
		Mode(engine.ShortRunning).
		DataSourceVariable("DS", "orderdb").
		Body(engine.NewSequence("body",
			NewSQL("ins", "DS", "INSERT INTO OrderConfirmations VALUES (#item#, 1, 'ok')"),
			NewSQL("sel", "DS", "SELECT COUNT(*) FROM Orders"),
		)).
		Variable("item", "seed").
		Build()
	d, err := e.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, instances)
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := d.Run(map[string]string{"item": fmt.Sprintf("inst%d", i)})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	r := db.MustExec("SELECT COUNT(*) FROM OrderConfirmations")
	if got := r.Rows[0][0].I; got != instances {
		t.Fatalf("%d confirmations, want %d", got, instances)
	}
}
