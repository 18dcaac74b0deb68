package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// Every workload's correctness check must catch a deliberately corrupted
// result: a check that cannot fail checks nothing.

func setUpFigures(t *testing.T, name string) *figures {
	t.Helper()
	inst, err := findWorkload(name).setup(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*figures)
}

func runOps(t *testing.T, inst instance, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := inst.op(i, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFigureChecksCatchCorruption(t *testing.T) {
	for _, name := range []string{"bis-fig4", "wf-fig6", "ora-fig8", "mix-durable"} {
		t.Run(name, func(t *testing.T) {
			f := setUpFigures(t, name)
			runOps(t, f, 3)
			if err := f.endSlice(3); err != nil {
				t.Fatalf("clean slice: %v", err)
			}

			runOps(t, f, 2)
			f.env.DB.MustExec("DELETE FROM OrderConfirmations WHERE ItemID = 'item000'")
			if err := f.endSlice(2); err == nil || !strings.Contains(err.Error(), "confirmations") {
				t.Errorf("a lost confirmation passed the slice check: %v", err)
			}

			// One supplier order the workflows never made.
			if _, err := f.env.Supplier.Handle(wsbus.Message{"ItemID": "item000", "Quantity": "1"}); err != nil {
				t.Fatal(err)
			}
			if err := f.finish(); err == nil || !strings.Contains(err.Error(), "supplier ledger") {
				t.Errorf("a stray supplier order passed the final check: %v", err)
			}
		})
	}
}

func TestDurableCheckCatchesAnUnfinishedInstance(t *testing.T) {
	f := setUpFigures(t, "mix-durable")
	runOps(t, f, 2)
	if err := f.endSlice(2); err != nil {
		t.Fatal(err)
	}
	// An instance that was created and never completed: what a crash
	// leaves behind.
	if err := f.rec.InstanceCreated(f.rec.AllocateID(), "Figure4", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.finish(); err == nil || !strings.Contains(err.Error(), "in-flight") {
		t.Errorf("an in-flight instance in the reopened WAL passed the final check: %v", err)
	}

	g := setUpFigures(t, "mix-durable")
	runOps(t, g, 2)
	g.ops++ // claim a round that never ran
	if err := g.finish(); err == nil {
		t.Error("a missing round passed the final check")
	}

	h := setUpFigures(t, "mix-durable")
	runOps(t, h, 2)
	if err := h.endSlice(2); err != nil {
		t.Fatal(err)
	}
	if err := h.finish(); err != nil {
		t.Errorf("clean durable run: %v", err)
	}
}

func TestSQLReadCheckCatchesCorruption(t *testing.T) {
	corruptions := map[string]string{
		"aggregate":   "UPDATE Orders SET Quantity = Quantity + 1 WHERE Approved = TRUE",
		"point":       "UPDATE Orders SET ItemID = 'nothing'",
		"index order": "UPDATE Orders SET CustID = 0",
		"join":        "UPDATE Suppliers SET Name = 'nobody'",
	}
	for what, sql := range corruptions {
		t.Run(what, func(t *testing.T) {
			r, err := newSQLRead(7)
			if err != nil {
				t.Fatal(err)
			}
			runOps(t, r, 2)
			r.db.MustExec(sql)
			if err := r.op(2, nil); err == nil {
				t.Errorf("%s passed the op's check", sql)
			}
		})
	}
}

func TestSQLWriteCheckCatchesCorruption(t *testing.T) {
	w, err := newSQLWrite(7)
	if err != nil {
		t.Fatal(err)
	}
	runOps(t, w, 20)
	if err := w.endSlice(20); err != nil {
		t.Fatalf("clean slice: %v", err)
	}
	w.db.MustExec("UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderID = 1")
	if err := w.finish(); err == nil {
		t.Error("a stray update passed the SUM(Quantity) check")
	}
	w.wantSum++
	w.db.MustExec("INSERT INTO Orders (OrderID, CustID, ItemID, Quantity, Approved) VALUES (?, ?, ?, ?, ?)",
		sqldb.Int(999999), sqldb.Int(1), sqldb.Str("x"), sqldb.Int(0), sqldb.Bool(false))
	if err := w.finish(); err == nil {
		t.Error("a stray row passed the COUNT(*) check")
	}
	// A lost row changes what a statement affects: the op itself fails.
	w.db.MustExec("DELETE FROM Orders WHERE CustID = 3")
	failed := false
	for i := 0; i < 4*sqlCustomers && !failed; i++ {
		failed = w.op(i, nil) != nil
	}
	if !failed {
		t.Error("no op noticed that a customer's orders were gone")
	}
	if w.s.InTransaction() {
		t.Error("a failed op left its transaction open")
	}
}

// The registry in Go and BENCHMARK.json must say the same thing, and every
// name must be one the driver accepts.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry %q / %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	compare := func(what string, got []jsonMetric, want []metric, bounded bool) {
		t.Helper()
		var fromGo []jsonMetric
		for _, m := range want {
			checkName(m.name)
			if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s: bad unit %q or direction %q", m.name, m.unit, m.better)
			}
			jm := jsonMetric{Name: m.name, Unit: m.unit, Better: m.better}
			if bounded {
				b := m.bound
				jm.Bound = &b
				if b <= 0 || b > 0.25 {
					t.Errorf("%s: bound %v outside (0, 0.25]", m.name, b)
				}
			}
			fromGo = append(fromGo, jm)
		}
		if !reflect.DeepEqual(got, fromGo) {
			t.Errorf("%s in BENCHMARK.json differs from the registry", what)
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v / paths %v", file.Command, file.Paths)
	}
}

// One invocation of each kind per workload at -quick scale: every
// registered metric is reported, nothing fails, and the budget rows sum to
// the traced op time.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 10, quick: true, scratch: t.TempDir()}
			e2e, err := runEndToEnd(w, cfg)
			if err != nil || e2e.failed != 0 {
				t.Fatalf("end-to-end run: %v, %d failed: %v", err, e2e.failed, e2e.errs)
			}
			for _, m := range endToEnd {
				if v, ok := e2e.metrics[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
				}
			}
			cfg.trace = true
			cfg.traceOut = cfg.scratch + "/spans.jsonl"
			layers, err := runPerLayer(w, cfg)
			if err != nil || layers.failed != 0 {
				t.Fatalf("per-layer run: %v, %d failed: %v", err, layers.failed, layers.errs)
			}
			if len(layers.metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d registered", len(layers.metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := layers.metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.name)
				}
			}
			m := layers.metrics
			sum := m["engine.self_us"] + m["mswf.self_us"] + m["sqldb.span_us"] + m["wsbus.span_us"] +
				m["journal.span_us"] + m["unattributed_us"]
			if op := m["traced_op_us"]; op <= 0 || sum < 0.95*op || sum > 1.05*op {
				t.Errorf("budget rows sum to %v µs, traced op time is %v µs", sum, op)
			}
			if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("-trace-out wrote nothing: %v", err)
			}
		})
	}
}
