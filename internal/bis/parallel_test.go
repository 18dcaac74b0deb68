package bis

import (
	"fmt"
	"sync"
	"testing"

	"wfsql/internal/engine"
)

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
