package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wfsql"
	"wfsql/internal/dataset"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/obsv"
	"wfsql/internal/rowset"
	"wfsql/internal/sched"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// A probe is a fixed-count loop over one public entry point of one layer,
// with figure-shaped inputs. It says what a layer costs in isolation, so
// that a change to that layer has a number of its own to move before the
// end-to-end metrics are consulted.
type probe struct {
	name string // metric name; the _ns/_us suffix is the unit reported
	n    int    // calls of fn per repetition, sized to ≈ 10 ms
	fn   func(i int) error
	per  int // operations one call of fn performs (0 means 1)
}

// probeReps repetitions of each probe are timed, each bracketed by the
// reference kernel and scaled like a slice; the median is reported.
const probeReps = 5

// sql1 is the paper's SQL1 aggregate, the statement every figure runs.
const sql1 = "SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID"

func runProbes(cfg config, reps int) (map[string]float64, error) {
	dir := filepath.Join(cfg.scratch, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	probes, rec, err := buildProbes(cfg.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("probe set-up: %w", err)
	}
	defer rec.Close()
	out := map[string]float64{}
	for _, p := range probes {
		n := p.n
		if cfg.quick {
			n = 1 + n/quickDivisor
		}
		var vals []float64
		iter := 0
		before := calibKernel()
		for r := 0; r < reps; r++ {
			start := time.Now()
			for j := 0; j < n; j++ {
				if err := p.fn(iter); err != nil {
					return nil, fmt.Errorf("probe %s: %w", p.name, err)
				}
				iter++
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(n)
			after := calibKernel()
			vals = append(vals, ns*CalibRefUS/((before+after)/2))
			before = after
		}
		v := median(vals)
		if p.per > 0 {
			v /= float64(p.per)
		}
		if strings.HasSuffix(p.name, "_us") {
			v /= 1e3
		}
		out[p.name] = v
	}
	return out, nil
}

// buildProbes sets up the fixtures the probes share and returns the
// probes with the journal they append to (the caller closes it).
func buildProbes(seed int64, walDir string) ([]probe, *journal.Recorder, error) {
	// Fixtures: the sql workloads' 4 096-order database, a figure-scale
	// environment (120 orders), and the 8-row RowSet SQL1 yields on it.
	big, err := newSQLTables(seed)
	if err != nil {
		return nil, nil, err
	}
	env := wfsql.NewEnvironment(figureScale(seed))
	small := env.DB.Session()
	prep := func(s *sqldb.Session, sql string) *sqldb.PreparedStmt {
		st, perr := s.Prepare(sql)
		if perr != nil && err == nil {
			err = perr
		}
		return st
	}
	agg120 := prep(small, sql1)
	agg4096 := prep(big.s, sql1)
	point := prep(big.s, "SELECT ItemID, Quantity FROM Orders WHERE OrderID = ?")
	index := prep(big.s, readCustSQL+"?"+readCustEnd)
	updatePK := prep(big.s, "UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderID = ?")
	join := prep(big.s, "SELECT o.OrderID, i.Price FROM Orders o JOIN Items i ON o.ItemID = i.ItemID WHERE o.CustID = ?")
	if _, cerr := big.db.Exec("CREATE TABLE Scratch (K INTEGER, V VARCHAR)"); cerr != nil {
		return nil, nil, cerr
	}
	insert := prep(big.s, "INSERT INTO Scratch (K, V) VALUES (?, ?)")
	if err != nil {
		return nil, nil, err
	}

	res, err := small.Exec(sql1)
	if err != nil {
		return nil, nil, err
	}
	rows, err := rowset.FromResult(res)
	if err != nil {
		return nil, nil, err
	}
	rowsXML := rows.String()
	itemExpr, err := xpath.Compile("$CurrentItem/ItemID")
	if err != nil {
		return nil, nil, err
	}
	xctx := &xpath.Context{Vars: xpath.VarMap{"CurrentItem": xpath.NodeSet(rowset.Row(rows, 3))}}

	cache := dataset.New()
	adapter := &dataset.DataAdapter{DB: env.DB, SelectSQL: "SELECT OrderID, Quantity FROM Orders",
		Table: "Orders", KeyColumns: []string{"OrderID"}}
	if _, err := adapter.Fill(cache, "Orders"); err != nil {
		return nil, nil, err
	}
	fill := &dataset.DataAdapter{DB: env.DB, SelectSQL: sql1}

	rec, err := journal.Open(walDir)
	if err != nil {
		return nil, nil, err
	}
	rec.SetRotateAtCheckpoint(true)
	rec.SetCheckpointEvery(0) // the probe times appends and checkpoints apart

	emptyBPEL, err := env.Engine.Deploy(&engine.Process{Name: "Empty", Body: &engine.Empty{ActivityName: "empty"}})
	if err != nil {
		return nil, nil, err
	}
	emptyWF := mswf.NewSequence("empty")
	tracer := obsv.NewTracer()
	noop := make([]sched.Job, 256)
	for i := range noop {
		noop[i] = sched.Job{Stack: "probe", Name: "noop", Run: func() error { return nil }}
	}
	one := sched.New(1)

	exec := func(st *sqldb.PreparedStmt, params ...sqldb.Value) error {
		_, err := st.Exec(params...)
		return err
	}
	text := func(sql string) error {
		_, err := big.s.Exec(sql)
		return err
	}
	mk := func(name string, n int, fn func(i int) error) probe { return probe{name: name, n: n, fn: fn} }
	return []probe{
		mk("sqldb.probe.parse_ns", 1200, func(i int) error {
			_, err := big.s.Prepare(readAggSQL)
			return err
		}),
		mk("sqldb.probe.raw_hit_ns", 3000, func(i int) error { return text(readPKSQL + "7") }),
		// Each literal is seen once: a miss in the raw-text front map, a
		// hit in the normalized plan cache.
		mk("sqldb.probe.norm_hit_ns", 1500, func(i int) error { return text(readPKSQL + strconv.Itoa(1000000+i)) }),
		mk("sqldb.probe.agg120_us", 250, func(i int) error { return exec(agg120) }),
		mk("sqldb.probe.agg4096_us", 10, func(i int) error { return exec(agg4096) }),
		mk("sqldb.probe.point_ns", 3000, func(i int) error { return exec(point, sqldb.Int(int64(1+i*7%sqlOrders))) }),
		mk("sqldb.probe.index_ns", 1000, func(i int) error { return exec(index, sqldb.Int(int64(i*7%sqlCustomers))) }),
		mk("sqldb.probe.insert_ns", 8000, func(i int) error { return exec(insert, sqldb.Int(int64(i)), sqldb.Str("v")) }),
		mk("sqldb.probe.update_pk_ns", 400, func(i int) error { return exec(updatePK, sqldb.Int(int64(1+i*7%sqlOrders))) }),
		mk("sqldb.probe.txn_ns", 10000, func(i int) error {
			if err := text("BEGIN"); err != nil {
				return err
			}
			return text("COMMIT")
		}),
		// The shape of a BIS result-set table's life: created and dropped
		// once per instance, under a name that never repeats.
		mk("sqldb.probe.ddl_create_drop_us", 1500, func(i int) error {
			name := "RS_" + strconv.Itoa(i)
			if err := text("CREATE TABLE " + name + " (ItemID VARCHAR, Quantity INTEGER)"); err != nil {
				return err
			}
			return text("DROP TABLE " + name)
		}),
		mk("sqldb.probe.call_proc_us", 200, func(i int) error {
			_, err := small.Exec("CALL approved_totals()")
			return err
		}),
		mk("sqldb.probe.join_orders_items_us", 1, func(i int) error { return exec(join, sqldb.Int(int64(i%sqlCustomers))) }),
		mk("xpath.compile_ns", 30000, func(i int) error {
			_, err := xpath.Compile("$CurrentItem/ItemID")
			return err
		}),
		mk("xpath.eval_ns", 150000, func(i int) error {
			_, err := itemExpr.Eval(xctx)
			return err
		}),
		mk("xdm.parse_ns", 450, func(i int) error {
			_, err := xdm.Parse(rowsXML)
			return err
		}),
		mk("xdm.clone_ns", 2000, func(i int) error { probeSink = rows.Clone(); return nil }),
		mk("xdm.serialize_ns", 10000, func(i int) error { probeSink = rows.String(); return nil }),
		mk("rowset.from_result_ns", 2000, func(i int) error {
			_, err := rowset.FromResult(res)
			return err
		}),
		mk("rowset.to_values_ns", 4000, func(i int) error {
			_, _, err := rowset.ToValues(rows)
			return err
		}),
		mk("dataset.fill_us", 300, func(i int) error {
			_, err := fill.Fill(dataset.New(), "Result")
			return err
		}),
		mk("dataset.update_us", 1400, func(i int) error {
			row, err := cache.Table("Orders").Row(i % 120)
			if err != nil {
				return err
			}
			if err := row.Set("Quantity", sqldb.Int(int64(1+i%maxQuantity))); err != nil {
				return err
			}
			_, err = adapter.Update(cache, "Orders")
			return err
		}),
		mk("wsbus.call_ns", 30000, func(i int) error {
			_, err := env.Bus.Invoke("OrderFromSupplier", wsbus.Message{"ItemID": "item000", "Quantity": "3"})
			return err
		}),
		// An unsynced append: the recorder's own marshal, write and state
		// fold, without the device's fsync.
		mk("journal.append_ns", 8000, func(i int) error { return rec.ActivityStart(1, "invoke", i, journal.EffectInvoke) }),
		mk("journal.checkpoint_us", 25, func(i int) error { return rec.Checkpoint() }),
		mk("obsv.span_ns", 30000, func(i int) error {
			tracer.Start(0, obsv.KindActivity, "probe").Set("k", "v").End(obsv.OutcomeOK)
			return nil
		}),
		{name: "sched.dispatch_ns", n: 80, per: len(noop), fn: func(i int) error { return one.Run(noop).FirstError() }},
		mk("engine.deploy_us", 1500, func(i int) error {
			_, err := env.Engine.Deploy(env.BuildFigure4BIS())
			return err
		}),
		mk("engine.empty_instance_ns", 30000, func(i int) error {
			_, err := emptyBPEL.Run(nil)
			return err
		}),
		mk("mswf.empty_instance_ns", 50000, func(i int) error {
			_, err := env.Runtime.Run(emptyWF, nil)
			return err
		}),
	}, rec, nil
}

// probeSink keeps results the probes do not otherwise use alive.
var probeSink any
