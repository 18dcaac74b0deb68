package wfsql

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index) and runs the
// ablations DESIGN.md calls out. The paper reports no absolute numbers —
// it explicitly deems cross-product performance comparison meaningless —
// so these benchmarks quantify the *qualitative* claims: who moves data,
// who bundles transactions, where workarounds cost.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"wfsql/internal/bis"
	"wfsql/internal/dataset"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/orasoa"
	"wfsql/internal/patterns"
	"wfsql/internal/sqldb"
)

// buildOracleCursorBench assembles the Oracle cursor workload: import a
// RowSet via the given assign, then iterate it with the while+snippet
// workaround.
func buildOracleCursorBench(env *Environment, importAssign engine.Activity) *engine.Process {
	return orasoa.NewProcess("cursor", env.Funcs).
		XMLVariable("rs", "").XMLVariable("Cur", "").Variable("pos", "1").
		Body(engine.NewSequence("m",
			importAssign,
			orasoa.CursorLoop("c", "rs", "Cur", "pos", &engine.Empty{ActivityName: "visit"}))).
		Build()
}

// --- Table I / Table II ---

// BenchmarkTableI_Generate regenerates Table I from live introspection.
func BenchmarkTableI_Generate(b *testing.B) {
	prods := patterns.Products()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(patterns.TableI(prods)) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII_Conformance executes the full conformance suite (29
// cases backing Table II and WF's 2 Table I cases, each against a fresh
// database).
func BenchmarkTableII_Conformance(b *testing.B) {
	prods := patterns.Products()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results := patterns.RunConformance(prods)
		if len(patterns.Failures(results)) != 0 {
			b.Fatal("conformance failure")
		}
	}
}

// --- Figure 1: adapter technology vs SQL inline support ---

// BenchmarkFig1_AdapterVsInline contrasts the two integration styles of
// Figure 1 on the same aggregation job. bytes/op-style metrics are
// reported as result-bytes moved into the process space.
func BenchmarkFig1_AdapterVsInline(b *testing.B) {
	for _, orders := range []int{100, 1000, 10000} {
		w := Workload{Orders: orders, Items: orders / 10, ApprovalPercent: 70, Seed: 3}
		b.Run(fmt.Sprintf("adapter/orders=%d", orders), func(b *testing.B) {
			env := NewEnvironment(w)
			env.DB.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.RunAdapterVariant(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.DB.Stats().BytesReturned)/float64(b.N), "resultB/op")
		})
		b.Run(fmt.Sprintf("inline/orders=%d", orders), func(b *testing.B) {
			env := NewEnvironment(w)
			env.DB.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.RunFigure4BISQueryOnly(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.DB.Stats().BytesReturned)/float64(b.N), "resultB/op")
		})
	}
}

// --- Figure 2: the nine data management patterns ---

// BenchmarkFig2_Patterns runs every executable conformance case of every
// product (workarounds included), each on a fresh environment, giving the
// full product × pattern cost matrix.
func BenchmarkFig2_Patterns(b *testing.B) {
	for _, p := range patterns.Products() {
		info := p.Info()
		for _, c := range p.Conformance() {
			c := c
			b.Run(fmt.Sprintf("%s/%s/%s", info.Vendor, c.Pattern, c.Support), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					env := patterns.NewEnv()
					if err := c.Run(env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figures 3, 5, 7: the three product architectures ---

// BenchmarkFig3_BISDeployExecute measures the WID→WPS pipeline: build the
// BIS process model, deploy it, and execute an instance.
func BenchmarkFig3_BISDeployExecute(b *testing.B) {
	env := NewEnvironment(Workload{Orders: 50, Items: 5, ApprovalPercent: 60, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := env.BuildFigure4BIS()
		d, err := env.Engine.Deploy(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		env.ResetConfirmations()
		b.StartTimer()
	}
}

// BenchmarkFig5_AuthoringModes contrasts WF's authoring modes: code-only
// construction vs markup-only loading (plus both executing).
func BenchmarkFig5_AuthoringModes(b *testing.B) {
	const markup = `
<SequenceActivity x:Name="main">
  <SQLDatabaseActivity x:Name="q"
      ConnectionString="Provider=SqlServer;Data Source=orderdb"
      Statement="SELECT ItemID, SUM(Quantity) AS Q FROM Orders WHERE Approved = TRUE GROUP BY ItemID"
      ResultSet="out"/>
</SequenceActivity>`
	b.Run("markup-load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mswf.LoadXOML(markup); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("markup-run", func(b *testing.B) {
		env := NewEnvironment(Workload{Orders: 50, Items: 5, ApprovalPercent: 60, Seed: 1})
		wf := mswf.MustLoadXOML(markup)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Runtime.Run(wf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("code-run", func(b *testing.B) {
		env := NewEnvironment(Workload{Orders: 50, Items: 5, ApprovalPercent: 60, Seed: 1})
		wf := mswf.NewSQLDatabase("q", ConnString,
			"SELECT ItemID, SUM(Quantity) AS Q FROM Orders WHERE Approved = TRUE GROUP BY ItemID").
			Into("out")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Runtime.Run(wf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7_OracleDeployExecute measures the BPEL Designer→Core BPEL
// Engine pipeline for the Oracle stack.
func BenchmarkFig7_OracleDeployExecute(b *testing.B) {
	env := NewEnvironment(Workload{Orders: 50, Items: 5, ApprovalPercent: 60, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := env.BuildFigure8Oracle()
		if err != nil {
			b.Fatal(err)
		}
		d, err := env.Engine.Deploy(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Run(nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		env.ResetConfirmations()
		b.StartTimer()
	}
}

// --- Figures 4, 6, 8: the running example on each stack ---

func benchRunningExample(b *testing.B, stack Stack) {
	for _, orders := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("orders=%d", orders), func(b *testing.B) {
			env := NewEnvironment(Workload{Orders: orders, Items: orders / 5, ApprovalPercent: 60, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Run(stack, ResilienceConfig{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				env.ResetConfirmations()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFig4_BISExample runs the Figure 4 workflow (IBM BIS stack).
func BenchmarkFig4_BISExample(b *testing.B) {
	benchRunningExample(b, StackBIS)
}

// BenchmarkFig6_WFExample runs the Figure 6 workflow (Microsoft WF stack).
func BenchmarkFig6_WFExample(b *testing.B) {
	benchRunningExample(b, StackWF)
}

// BenchmarkFig8_OracleExample runs the Figure 8 workflow (Oracle stack).
func BenchmarkFig8_OracleExample(b *testing.B) {
	benchRunningExample(b, StackOracle)
}

// figureScale is the benchmark's figure workload (bench/workloads.go):
// one aggregate over 120 orders, 8 supplier calls and 8 inserts per
// instance.
var figureScale = Workload{Orders: 120, Items: 8, ApprovalPercent: 80, Seed: 42}

// BenchmarkFigureInstance times one warmed instance per stack at the
// benchmark's scale, deployed once and detached (no journal, no
// observability) — the shape `bench/run.sh` measures, profilable without
// the harness:
//
//	go test -run '^$' -bench FigureInstance/bis -cpu 1 -cpuprofile /root/scratch/cpu.out .
func BenchmarkFigureInstance(b *testing.B) {
	for _, stack := range Stacks() {
		b.Run(strings.ToLower(stack.Name), func(b *testing.B) {
			env := NewEnvironment(figureScale)
			p, err := stack.Prepare(env, ResilienceConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Run(ctx); err != nil {
					b.Fatal(err)
				}
				if i%256 == 255 { // the harness's slice: keep the table bounded
					b.StopTimer()
					env.ResetConfirmations()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkParallelFigures times RunParallel at the benchmark's scale,
// b.N instances of one stack on one or two workers against one shared
// database, and reports instances/s: the figure-scaling measurement a
// change to sqldb's locking is checked against.
//
//	go test -run '^$' -bench ParallelFigures -benchtime 6000x -cpu 2 .
func BenchmarkParallelFigures(b *testing.B) {
	for _, stack := range Stacks() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", stack.Name, workers), func(b *testing.B) {
				env := NewEnvironment(figureScale)
				b.ResetTimer()
				start := time.Now()
				if _, err := env.RunParallel(stack, ParallelConfig{Instances: b.N, Workers: workers}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "instances/s")
			})
		}
	}
}

// BenchmarkDurableRound times the shape of the benchmark's mix-durable
// workload without the harness: one instance each of BIS, WF and Oracle on
// one environment with the WAL attached to both hosts, unsynced; every 40
// rounds, with the timer stopped, the confirmations are cleared and a
// checkpoint rewrites the WAL as a fresh segment.
//
//	go test -run '^$' -bench DurableRound -cpu 1 -cpuprofile /root/scratch/cpu.out -o /root/scratch/wfsql.test .
func BenchmarkDurableRound(b *testing.B) {
	env := NewEnvironment(figureScale)
	rec, err := journal.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncNever})
	rec.SetCheckpointEvery(0)
	rec.SetRotateAtCheckpoint(true)
	env.AttachJournal(rec)
	var stacks []*Prepared
	for _, stack := range Stacks() {
		p, err := stack.Prepare(env, ResilienceConfig{})
		if err != nil {
			b.Fatal(err)
		}
		stacks = append(stacks, p)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range stacks {
			if err := p.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		if i%40 == 39 {
			b.StopTimer()
			env.ResetConfirmations()
			if err := rec.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_ReferenceVsMaterialize quantifies by-reference result
// passing (BIS set references) against by-value materialization (WF
// DataSet / Oracle RowSet) as row width grows.
func BenchmarkAblation_ReferenceVsMaterialize(b *testing.B) {
	for _, payload := range []int{0, 4, 16} {
		w := Workload{Orders: 2000, Items: 40, ApprovalPercent: 70, Seed: 3,
			PayloadColumns: payload, PayloadWidth: 64}
		name := fmt.Sprintf("payloadCols=%d", payload)
		b.Run("reference/"+name, func(b *testing.B) {
			env := NewEnvironment(w)
			env.DB.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Reference: SELECT * result stays external.
				p := bis.NewProcess("ref").
					DataSourceVariable("DS", DataSourceName).
					InputSetReference("SR_Orders", "Orders").
					ResultSetReference("SR_R").
					Body(bis.NewSQL("q", "DS", "SELECT * FROM #SR_Orders#").Into("SR_R")).
					Build()
				d, _ := env.Engine.Deploy(p)
				if _, err := d.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.DB.Stats().BytesReturned)/float64(b.N), "resultB/op")
		})
		b.Run("materialize/"+name, func(b *testing.B) {
			env := NewEnvironment(w)
			env.DB.ResetStats()
			wf := mswf.NewSQLDatabase("q", ConnString, "SELECT * FROM Orders").Into("out")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Runtime.Run(wf, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.DB.Stats().BytesReturned)/float64(b.N), "resultB/op")
		})
	}
}

// BenchmarkAblation_AtomicSequence contrasts per-activity transactions
// with an atomic SQL sequence bundling K updates in a long-running
// process.
func BenchmarkAblation_AtomicSequence(b *testing.B) {
	const k = 20
	mkUpdates := func() []engine.Activity {
		var acts []engine.Activity
		for i := 0; i < k; i++ {
			acts = append(acts, bis.NewSQL(fmt.Sprintf("u%d", i), "DS",
				"UPDATE #SR_Orders# SET Quantity = Quantity + 1 WHERE OrderID = 1"))
		}
		return acts
	}
	run := func(b *testing.B, body engine.Activity) {
		env := NewEnvironment(Workload{Orders: 100, Items: 5, ApprovalPercent: 60, Seed: 1})
		p := bis.NewProcess("txn").
			Mode(engine.LongRunning).
			DataSourceVariable("DS", DataSourceName).
			InputSetReference("SR_Orders", "Orders").
			Body(body).
			Build()
		d, err := env.Engine.Deploy(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-activity-txn", func(b *testing.B) {
		run(b, engine.NewSequence("seq", mkUpdates()...))
	})
	b.Run("atomic-sequence", func(b *testing.B) {
		run(b, bis.NewAtomicSequence("atomic", mkUpdates()...))
	})
}

// BenchmarkAblation_DynamicBinding measures the cost of BIS's dynamic
// data source binding (rebinding the data source variable every run)
// against a static binding.
func BenchmarkAblation_DynamicBinding(b *testing.B) {
	newEnv := func() *Environment {
		env := NewEnvironment(Workload{Orders: 100, Items: 5, ApprovalPercent: 60, Seed: 1})
		alt := sqldb.Open("altdb")
		SeedOrders(alt, env.Workload)
		env.Engine.RegisterDataSource("altdb", alt)
		return env
	}
	query := bis.NewSQL("q", "DS", "SELECT COUNT(*) FROM #SR_Orders# WHERE Approved = TRUE").Into("SR_R")
	b.Run("static", func(b *testing.B) {
		env := newEnv()
		p := bis.NewProcess("static").
			DataSourceVariable("DS", DataSourceName).
			InputSetReference("SR_Orders", "Orders").
			ResultSetReference("SR_R").
			Body(query).
			Build()
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dynamic-rebind", func(b *testing.B) {
		env := newEnv()
		p := bis.NewProcess("dynamic").
			DataSourceVariable("DS", DataSourceName).
			InputSetReference("SR_Orders", "Orders").
			ResultSetReference("SR_R").
			Body(engine.NewSequence("m",
				bis.JavaSnippet("rebind", func(ctx *engine.Ctx) error {
					return bis.RebindDataSource(ctx, "DS", "altdb")
				}),
				query)).
			Build()
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_CursorStrategies compares the three products'
// sequential-access strategies over the same materialized set: BIS
// while+snippet over an XML RowSet, WF's native DataSet iteration, and
// Oracle's while+snippet over an XML RowSet.
func BenchmarkAblation_CursorStrategies(b *testing.B) {
	const rows = 500
	w := Workload{Orders: rows, Items: 10, ApprovalPercent: 100, Seed: 1}

	b.Run("bis-while-snippet", func(b *testing.B) {
		env := NewEnvironment(w)
		p := bis.NewProcess("cursor").
			DataSourceVariable("DS", DataSourceName).
			InputSetReference("SR_Orders", "Orders").
			ResultSetReference("SR_R").
			XMLVariable("SV", "").XMLVariable("Cur", "").Variable("pos", "1").
			Body(engine.NewSequence("m",
				bis.NewSQL("q", "DS", "SELECT OrderID, ItemID FROM #SR_Orders#").Into("SR_R"),
				bis.NewRetrieveSet("r", "DS", "SR_R", "SV"),
				bis.CursorLoop("c", "SV", "Cur", "pos", &engine.Empty{ActivityName: "visit"}))).
			Build()
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wf-dataset-iteration", func(b *testing.B) {
		env := NewEnvironment(w)
		wf := mswf.NewSequence("m",
			mswf.NewSQLDatabase("q", ConnString, "SELECT OrderID, ItemID FROM Orders").Into("cache"),
			mswf.NewWhile("w",
				func(c *mswf.Context) (bool, error) {
					v, _ := c.Get("cache")
					i, _ := c.GetInt("i")
					return int(i) < v.(*dataset.DataSet).Table("Result").Count(), nil
				},
				mswf.NewCode("visit", func(c *mswf.Context) error {
					i, _ := c.GetInt("i")
					c.Set("i", i+1)
					return nil
				})))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Runtime.Run(wf, map[string]any{"i": 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle-while-snippet", func(b *testing.B) {
		env := NewEnvironment(w)
		import2 := engine.NewAssign("q").Copy(
			`ora:query-database("SELECT OrderID, ItemID FROM Orders")`, "rs")
		p := buildOracleCursorBench(env, import2)
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_TupleIUDStrategies compares the three products'
// tuple-IUD mechanisms over the same 200-row cache: Oracle's abstract
// bpelx assign operations, BIS's snippet workarounds over the XML RowSet,
// and WF's code-activity DataSet mutation — quantifying the cost spread
// behind Table II's Tuple IUD column.
func BenchmarkAblation_TupleIUDStrategies(b *testing.B) {
	const rows = 200
	rowSetXML := func() string {
		var sb []byte
		sb = append(sb, "<RowSet>"...)
		for i := 0; i < rows; i++ {
			sb = append(sb, fmt.Sprintf("<Row><K>%d</K><V>%d</V></Row>", i, i)...)
		}
		sb = append(sb, "</RowSet>"...)
		return string(sb)
	}()

	b.Run("oracle-bpelx", func(b *testing.B) {
		env := NewEnvironment(DefaultWorkload())
		funcs := env.Funcs
		p := orasoa.NewProcess("t", funcs).
			XMLVariable("rs", rowSetXML).
			XMLVariable("newRow", "<Row><K>999</K><V>1</V></Row>").
			Body(engine.NewSequence("m",
				orasoa.NewBpelxAssign("upd").Copy("'42'", "rs", "Row[100]/V"),
				orasoa.NewBpelxAssign("ins").InsertAfter("$newRow", "rs", "Row[100]"),
				orasoa.NewBpelxAssign("del").Remove("rs", "Row[101]"),
			)).Build()
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bis-snippets", func(b *testing.B) {
		env := NewEnvironment(DefaultWorkload())
		p := bis.NewProcess("t").
			DataSourceVariable("DS", DataSourceName).
			XMLVariable("rs", rowSetXML).
			Body(engine.NewSequence("m",
				engine.NewAssign("upd").CopyTo("'42'", "rs", "Row[100]/V"),
				bis.JavaSnippet("ins", func(ctx *engine.Ctx) error {
					return bis.InsertTuple(ctx, "rs", []string{"K", "V"}, []string{"999", "1"})
				}),
				bis.JavaSnippet("del", func(ctx *engine.Ctx) error {
					return bis.DeleteTuple(ctx, "rs", 100)
				}),
			)).Build()
		d, _ := env.Engine.Deploy(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wf-dataset-code", func(b *testing.B) {
		env := NewEnvironment(DefaultWorkload())
		mkCache := func() *dataset.DataSet {
			ds := dataset.New()
			tab := dataset.NewDataTable("Result", "K", "V")
			tab.PrimaryKey = []string{"K"}
			ds.AddTable(tab)
			for i := 0; i < rows; i++ {
				tab.AddRow(sqldb.Int(int64(i)), sqldb.Int(int64(i)))
			}
			tab.AcceptChanges()
			return ds
		}
		wf := mswf.NewCode("iud", func(c *mswf.Context) error {
			v, _ := c.Get("cache")
			tab := v.(*dataset.DataSet).Table("Result")
			row, _ := tab.Find(sqldb.Int(100))
			if err := row.Set("V", sqldb.Int(42)); err != nil {
				return err
			}
			if _, err := tab.AddRow(sqldb.Int(999), sqldb.Int(1)); err != nil {
				return err
			}
			victim, _ := tab.Find(sqldb.Int(101))
			victim.Delete()
			return nil
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := mkCache()
			b.StartTimer()
			if _, err := env.Runtime.Run(wf, map[string]any{"cache": cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_ServiceLatency sweeps injected service-call latency
// over the Figure 4 workflow. SQL inline activities are unaffected (they
// never cross the bus); the per-tuple invoke dominates as latency grows —
// quantifying why the paper cares about which operations stay inside the
// data source.
func BenchmarkAblation_ServiceLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("latency=%s", lat), func(b *testing.B) {
			env := NewEnvironment(Workload{Orders: 50, Items: 5, ApprovalPercent: 60, Seed: 1})
			env.Bus.SetLatency(lat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Run(StackBIS, ResilienceConfig{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				env.ResetConfirmations()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblation_IndexVsScan validates the SQL substrate is a real
// engine: point lookups with a hash index vs full scans.
func BenchmarkAblation_IndexVsScan(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		seed := func(index bool) *sqldb.DB {
			db := sqldb.Open("bench")
			db.MustExec("CREATE TABLE t (id INTEGER, v VARCHAR)")
			s := db.Session()
			stmt, _ := s.Prepare("INSERT INTO t VALUES (?, ?)")
			for i := 0; i < rows; i++ {
				stmt.Exec(sqldb.Int(int64(i)), sqldb.Str("v"))
			}
			if index {
				db.MustExec("CREATE INDEX t_id ON t (id)")
			}
			return db
		}
		b.Run(fmt.Sprintf("scan/rows=%d", rows), func(b *testing.B) {
			db := seed(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec("SELECT v FROM t WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("index/rows=%d", rows), func(b *testing.B) {
			db := seed(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec("SELECT v FROM t WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
