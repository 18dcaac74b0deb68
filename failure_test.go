package wfsql

import (
	"sort"
	"strings"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/chaos"
	"wfsql/internal/engine"
	"wfsql/internal/wsbus"
)

// TestSupplierRejectionPath exercises the running example's failure mode
// the paper's confirmation string implies ("indicates whether the order
// has been processed successfully or not"): a capacity-limited supplier
// rejects large orders, and the process records the rejection rather than
// faulting.
func TestSupplierRejectionPath(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 40, Items: 4, ApprovalPercent: 100, Seed: 5})
	// Replace the unlimited supplier with a capacity-limited one.
	limited := wsbus.NewOrderFromSupplier(50)
	env.Bus.Register("OrderFromSupplier", limited.Handle)

	if err := env.Run(StackBIS, ResilienceConfig{}); err != nil {
		t.Fatal(err)
	}
	res := env.DB.MustExec("SELECT Confirmation FROM OrderConfirmations ORDER BY ItemID")
	var confirmed, rejected int
	for _, row := range res.Rows {
		switch {
		case strings.HasPrefix(row[0].S, "CONFIRMED:"):
			confirmed++
		case strings.HasPrefix(row[0].S, "REJECTED:"):
			rejected++
		default:
			t.Fatalf("unexpected confirmation %q", row[0].S)
		}
	}
	if rejected == 0 {
		t.Fatal("workload should exceed the supplier capacity for some item")
	}
	if confirmed+rejected != env.ApprovedItemTypes() {
		t.Fatalf("%d+%d confirmations for %d item types", confirmed, rejected, env.ApprovedItemTypes())
	}
	// Rejected orders must not accumulate at the supplier.
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0].S, "REJECTED:") {
			item := strings.Split(row[0].S, ":")[1]
			if limited.Ordered(item) != 0 {
				t.Fatalf("rejected item %s accumulated %d at supplier", item, limited.Ordered(item))
			}
		}
	}
}

// TestServiceFaultRollsBackShortRunningProcess injects a hard service
// fault mid-cursor and checks the short-running transaction semantics:
// every SQL2 insert of the partially executed workflow is rolled back.
func TestServiceFaultRollsBackShortRunningProcess(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 30, Items: 6, ApprovalPercent: 100, Seed: 9})
	calls := 0
	env.Bus.Register("OrderFromSupplier", func(req wsbus.Message) (wsbus.Message, error) {
		calls++
		if calls == 3 {
			return nil, &engine.Fault{Name: "supplierDown"}
		}
		return wsbus.Message{"OrderConfirmation": "CONFIRMED:" + req["ItemID"] + ":" + req["Quantity"]}, nil
	})

	// The Figure 4 body, but in a short-running process: all SQL work of
	// the instance shares one transaction.
	body := engine.NewSequence("main",
		bis.NewSQL("SQL1", "DS",
			`SELECT ItemID, SUM(Quantity) AS Quantity FROM #SR_Orders#
			 WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID`).Into("SR_ItemList"),
		bis.NewRetrieveSet("retrieveSet", "DS", "SR_ItemList", "SV_ItemList"),
		bis.CursorLoop("cursor", "SV_ItemList", "CurrentItem", "pos",
			engine.NewSequence("loopBody",
				engine.NewAssign("extract").
					Copy("$CurrentItem/ItemID", "CurrentItemID").
					Copy("$CurrentItem/Quantity", "CurrentQuantity"),
				engine.NewInvoke("invoke", "OrderFromSupplier").
					In("ItemID", "$CurrentItem/ItemID").
					In("Quantity", "$CurrentItem/Quantity").
					Out("OrderConfirmation", "OrderConfirmation"),
				bis.NewSQL("SQL2", "DS",
					`INSERT INTO #SR_OrderConfirmations# (ItemID, Quantity, Confirmation)
					 VALUES (#CurrentItemID#, #CurrentQuantity#, #OrderConfirmation#)`),
			)),
	)
	p := bis.NewProcess("Fig4Short").
		Mode(engine.ShortRunning).
		DataSourceVariable("DS", DataSourceName).
		InputSetReference("SR_Orders", "Orders").
		InputSetReference("SR_OrderConfirmations", "OrderConfirmations").
		ResultSetReference("SR_ItemList").
		XMLVariable("SV_ItemList", "").
		XMLVariable("CurrentItem", "").
		Variable("CurrentItemID", "").
		Variable("CurrentQuantity", "").
		Variable("OrderConfirmation", "").
		Variable("pos", "1").
		Body(body).
		Build()

	d, err := env.Engine.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected service fault to propagate")
	}
	// Two inserts happened before the fault — and were rolled back.
	if n := env.ConfirmationCount(); n != 0 {
		t.Fatalf("short-running rollback leaked %d confirmations", n)
	}
}

// TestServiceFaultKeepsCommittedWorkInLongRunningProcess is the
// long-running counterpart: work committed per activity survives the
// fault — the transactional difference the paper's atomic-SQL-sequence
// discussion is about.
func TestServiceFaultKeepsCommittedWorkInLongRunningProcess(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 30, Items: 6, ApprovalPercent: 100, Seed: 9})
	calls := 0
	env.Bus.Register("OrderFromSupplier", func(req wsbus.Message) (wsbus.Message, error) {
		calls++
		if calls == 3 {
			return nil, &engine.Fault{Name: "supplierDown"}
		}
		return wsbus.Message{"OrderConfirmation": "CONFIRMED"}, nil
	})
	if err := env.Run(StackBIS, ResilienceConfig{}); err == nil {
		t.Fatal("expected service fault to propagate")
	}
	if n := env.ConfirmationCount(); n != 2 {
		t.Fatalf("long-running process should keep 2 committed confirmations, has %d", n)
	}
}

// TestPermanentSupplierFailureDeadLetters extends the rejection-path story
// with the resilience layer's degraded-completion mode: a supplier that
// permanently fails for a subset of item types must not fault the process.
// The run completes, healthy items confirm normally, the failed items'
// confirmations record the dead-lettering, and the engine's dead-letter log
// contains exactly the failed item IDs — no more, no fewer.
func TestPermanentSupplierFailureDeadLetters(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 30, Items: 6, ApprovalPercent: 100, Seed: 9})
	victims := map[string]bool{"item001": true, "item004": true}
	plan := chaos.NewFaultPlan(1)
	plan.FailFirst = 1 << 30
	plan.Permanent = true
	plan.Match = func(req map[string]string) bool { return victims[req["ItemID"]] }
	if err := chaos.Inject(env.Bus, "OrderFromSupplier", plan); err != nil {
		t.Fatal(err)
	}

	cfg := ResilienceConfig{Invoke: quickPolicy(3), DeadLetterAbsorb: true}
	if err := env.Run(StackBIS, cfg); err != nil {
		t.Fatalf("process should complete degraded, got fault: %v", err)
	}

	// Every approved item type produced a row; the victims' rows carry the
	// dead-letter marker instead of a supplier confirmation.
	res := env.DB.MustExec("SELECT ItemID, Confirmation FROM OrderConfirmations ORDER BY ItemID")
	if len(res.Rows) != env.ApprovedItemTypes() {
		t.Fatalf("confirmations = %d, want %d", len(res.Rows), env.ApprovedItemTypes())
	}
	for _, row := range res.Rows {
		item, conf := row[0].S, row[1].S
		if victims[item] {
			if conf != "DEADLETTERED:"+item {
				t.Fatalf("victim %s confirmation %q, want DEADLETTERED marker", item, conf)
			}
		} else if !strings.HasPrefix(conf, "CONFIRMED:") {
			t.Fatalf("healthy item %s confirmation %q", item, conf)
		}
	}

	// The dead-letter log holds exactly the failed item IDs.
	var wantKeys []string
	for v := range victims {
		wantKeys = append(wantKeys, v)
	}
	sort.Strings(wantKeys)
	gotKeys := env.Engine.DeadLetters.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("dead-letter keys %v, want %v", gotKeys, wantKeys)
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("dead-letter keys %v, want %v", gotKeys, wantKeys)
		}
	}
	// One record per victim (one loop iteration each), each exhausted on
	// the first attempt because the fault is classified permanent.
	if env.Engine.DeadLetters.Len() != len(wantKeys) {
		t.Fatalf("dead-letter records = %d, want %d", env.Engine.DeadLetters.Len(), len(wantKeys))
	}
	for _, dl := range env.Engine.DeadLetters.Entries() {
		if dl.Attempts != 1 || dl.Target != "OrderFromSupplier" {
			t.Fatalf("dead letter %+v: want 1 attempt against OrderFromSupplier", dl)
		}
	}
}

// TestBusLatencyAffectsInvokeOnly verifies the injectable service latency
// used by benchmarks applies to invocations, not SQL inline activities.
func TestBusLatencyAffectsInvokeOnly(t *testing.T) {
	env := NewEnvironment(DefaultWorkload())
	env.Bus.SetLatency(0)
	if err := env.Run(StackBIS, ResilienceConfig{}); err != nil {
		t.Fatal(err)
	}
	if env.Bus.Calls() != int64(env.ApprovedItemTypes()) {
		t.Fatalf("bus calls: %d, want %d", env.Bus.Calls(), env.ApprovedItemTypes())
	}
}

// TestConcurrentInstances runs many Figure 4 instances concurrently
// against one database: per-instance result tables must not collide, and
// every instance's confirmations must land.
func TestConcurrentInstances(t *testing.T) {
	env := NewEnvironment(Workload{Orders: 20, Items: 4, ApprovalPercent: 100, Seed: 2})
	d, err := env.Engine.Deploy(env.BuildFigure4BIS())
	if err != nil {
		t.Fatal(err)
	}
	const instances = 12
	errs := make(chan error, instances)
	for i := 0; i < instances; i++ {
		go func() {
			_, err := d.Run(nil)
			errs <- err
		}()
	}
	for i := 0; i < instances; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := instances * env.ApprovedItemTypes()
	if got := env.ConfirmationCount(); got != want {
		t.Fatalf("confirmations: %d, want %d", got, want)
	}
	// All per-instance result tables were dropped.
	for _, name := range env.DB.TableNames() {
		if strings.HasPrefix(name, "SR_ItemList_i") {
			t.Fatalf("leaked result table %s", name)
		}
	}
}
