package wfsql

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wfsql/internal/bis"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/obsv"
	"wfsql/internal/orasoa"
	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
)

// TestCountBudget is the machine-independent half of the benchmark's
// budget: what one instance of each stack writes to the journal, sends to
// the database and emits as spans at the benchmark's figure workload (120
// orders, 8 item types, 80 % approved) is a count, not a time, so it is
// asserted exactly and on every test run. A change that adds a journal
// append, a statement or a span per instance fails here and must move the
// number on purpose.
func TestCountBudget(t *testing.T) {
	w := Workload{Orders: 120, Items: 8, ApprovalPercent: 80, Seed: 1}
	for _, tc := range []struct {
		stack      Stack
		records    map[journal.Kind]int // the whole WAL: one instance (a deployment writes nothing)
		walBytes   int64                // its size, a ceiling: 1 026, 1 923 and 1 686 measured, + 5 % (ids and times vary by a byte or two)
		statements int64                // DB.Stats().Statements for the instance
		spans      map[obsv.SpanKind]int
	}{
		{StackBIS,
			map[journal.Kind]int{journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			1077, 12, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 62, obsv.KindSQL: 12, obsv.KindBus: 8}},
		{StackWF,
			map[journal.Kind]int{journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			2019, 9, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 35, obsv.KindSQL: 9}},
		{StackOracle,
			map[journal.Kind]int{journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			1770, 9, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 61, obsv.KindSQL: 9, obsv.KindBus: 8}},
	} {
		t.Run(tc.stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			rec := openJournal(t, t.TempDir())
			env.AttachJournal(rec)
			col := obsv.NewCollector()
			o := obsv.New()
			o.Tracer.AddSink(col)
			env.EnableObservability(o)

			p, err := tc.stack.Prepare(env, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			col.Reset()
			before := env.DB.Stats().Statements
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := env.DB.Stats().Statements - before; got != tc.statements {
				t.Errorf("statements per instance = %d, want %d", got, tc.statements)
			}
			spans := map[obsv.SpanKind]int{}
			for _, s := range col.Spans() {
				spans[s.Kind]++
			}
			if !reflect.DeepEqual(spans, tc.spans) {
				t.Errorf("spans per instance = %v, want %v", spans, tc.spans)
			}

			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(rec.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			scan, err := journal.Scan(f)
			if err != nil || scan.Torn {
				t.Fatalf("scan journal: %v torn=%v", err, scan.Torn)
			}
			records := map[journal.Kind]int{}
			for i := range scan.Records {
				records[scan.Records[i].Kind]++
			}
			if !reflect.DeepEqual(records, tc.records) {
				t.Errorf("journal records = %v, want %v", records, tc.records)
			}
			t.Logf("WAL: %d bytes", scan.ValidLen)
			if scan.ValidLen > tc.walBytes {
				t.Errorf("WAL holds %d bytes for one instance, budget %d", scan.ValidLen, tc.walBytes)
			}
		})
	}
}

// instanceAllocs deploys the stack's figure once on a fresh environment
// of the given workload, with no observability and — unless durable — no
// journal, and returns what one warmed instance allocates: objects and
// bytes. A durable instance writes an unsynced WAL in a temporary
// directory, as the benchmark's mix-durable workload does.
func instanceAllocs(t *testing.T, stack Stack, w Workload, durable bool) (objects float64, bytes uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := NewEnvironment(w)
	if durable {
		rec := openJournal(t, t.TempDir())
		defer rec.Close()
		rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncNever})
		rec.SetCheckpointEvery(0)
		env.AttachJournal(rec)
	}
	p, err := stack.Prepare(env, ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return measureAllocs(func() {
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// measureAllocs returns what one warmed call of run allocates: objects
// and bytes.
func measureAllocs(run func()) (objects float64, bytes uint64) {
	run() // the first instance sizes the deployment's buffers and parses its query
	// Collect before measuring, so that no cycle starts inside the window:
	// the process's first one starts the runtime's mark workers, and their
	// allocations are not the instance's.
	runtime.GC()
	const runs = 5
	objects = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return objects, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestAllocBudget gates the benchmark's allocs_per_op and
// alloc_bytes_per_op without the harness: objects and bytes per warmed
// instance at the benchmark's scale and seed, per stack, detached and with
// the journal attached. The ceilings are what was measured when they were
// last moved on purpose: objects exactly, since the count repeats run to
// run and one more object per instance is a change to explain, and bytes
// plus 5 % (a per-instance log nobody reads costs few objects but shows in
// bytes).
func TestAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		stack   Stack
		durable bool
		objects float64
		bytes   uint64
	}{
		{StackBIS, false, 206, 19102},    // 18 192 B measured (239, 23 656 with a request and a reply map and an attempt closure per supplier call and a node-set slice per cursor bind; 240, 23 536 with the completion callbacks copied per instance and no parent span id in the invoke attempt closure; 265, 27 904 with the row copied per cursor bind; 266, 28 088 with a copy of the input map per instance; 287 objects, 29 848 B with a session and its two maps minted per instance)
		{StackBIS, true, 236, 23822},     // 22 688 B (269, 28 155 with the supplier's maps and the node-set per bind; 270, 28 032 with the callbacks copied; 295, 32 400 with the row copied per bind; 297, 32 632 with the input map copied; 318, 34 392; 353, 37 400 with a memo key built per save, an empty memo map per INSERT and a heap Record per typed append)
		{StackWF, false, 95, 5982},       // 5 694 B (143, 11 806 with a request and a reply map and a call closure per supplier call, a parameter vector per statement and each string and int64 host variable boxed; 158, 12 854 with a session and its map minted per instance)
		{StackWF, true, 141, 13004},      // 12 385 B (189, 18 494 with the supplier's maps, the parameter vectors and the boxed host variables; 200, 19 096 with copies of the DataSet memo's rows and table names; 376, 28 694 with an xdm tree per DataSet memo and state snapshot)
		{StackOracle, false, 195, 18232}, // 17 364 B (228, 22 812 with the supplier's maps and the node-set per bind; 22 684 with no parent span id in the invoke attempt closure; 253, 26 828 with the row copied per bind; 254, 26 916 with the input map copied)
		{StackOracle, true, 242, 26515},  // 25 252 B (275, 30 700 with the supplier's maps and the node-set per bind; 30 576; 300, 34 716 with the row copied per bind; 302, 34 852 with the input map copied; 338, 37 582)
	} {
		name := tc.stack.Name
		if tc.durable {
			name += "/durable"
		}
		t.Run(name, func(t *testing.T) {
			objects, bytes := instanceAllocs(t, tc.stack, figureScale, tc.durable)
			t.Logf("%.0f objects, %d bytes per instance", objects, bytes)
			if objects > tc.objects {
				t.Errorf("%.0f objects per instance, budget %.0f", objects, tc.objects)
			}
			if bytes > tc.bytes {
				t.Errorf("%d bytes per instance, budget %d", bytes, tc.bytes)
			}
		})
	}
}

// TestSupplierCallAllocs pins the objects one supplier call allocates on
// each stack, exactly: an instance whose body is the figures' invoke less
// one whose body is empty, the invoke's input row and host variables set
// up alike in both. The BPEL stacks (BIS, Oracle) share the engine's
// invoke and the bus; WF calls the runtime's operation.
func TestSupplierCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := NewEnvironment(figureScale)
	bpel := func(body engine.Activity) func() {
		d, err := env.Engine.Deploy(&engine.Process{Name: "supplierCall", Body: body, Variables: []engine.VarDecl{
			{Name: "CurrentItem", Kind: engine.XMLVar, InitXML: "<Row><ItemID>item000</ItemID><Quantity>3</Quantity></Row>"},
			{Name: "OrderConfirmation", Kind: engine.ScalarVar},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := d.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	wf := func(body mswf.Activity) func() {
		return func() {
			if _, err := env.Runtime.Run(body, map[string]any{"CurrentItemID": "item000", "CurrentItemQuantity": int64(3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		stacks      string
		call, empty func()
		objects     float64
	}{
		// 3 of them the request vector, the reply vector and the
		// confirmation (10 with a request and a reply map and the attempt
		// closure built per call).
		{"BIS,Oracle", bpel(engine.NewInvoke("invoke", "OrderFromSupplier").
			In("ItemID", "$CurrentItem/ItemID").
			In("Quantity", "$CurrentItem/Quantity").
			Out("OrderConfirmation", "OrderConfirmation")), bpel(&engine.Empty{ActivityName: "invoke"}), 7},
		// 9 with a request and a reply map, the call closure and the
		// confirmation boxed into its host variable.
		{"WF", wf(&mswf.InvokeWebServiceActivity{ActivityName: "invoke", ServiceName: "OrderFromSupplier",
			Inputs:  map[string]string{"ItemID": "CurrentItemID", "Quantity": "CurrentItemQuantity"},
			Outputs: map[string]string{"OrderConfirmation": "OrderConfirmation"}}), wf(mswf.NewSequence("invoke")), 5},
	} {
		t.Run(tc.stacks, func(t *testing.T) {
			call, _ := measureAllocs(tc.call)
			empty, _ := measureAllocs(tc.empty)
			t.Logf("%.0f objects per supplier call", call-empty)
			if call-empty != tc.objects {
				t.Errorf("%.0f objects per supplier call, want %.0f", call-empty, tc.objects)
			}
		})
	}
}

// TestCursorLoopScalesLinearly pins the Sequential Set Access workaround
// to linear cost by counts: ten times the orders (and item types, the
// cursor's tuples) may allocate about ten times the objects and bytes per
// instance, not the 27× in bytes a cursor that rebuilds its set per step
// did.
func TestCursorLoopScalesLinearly(t *testing.T) {
	for _, stack := range []Stack{StackBIS, StackOracle} {
		t.Run(stack.Name, func(t *testing.T) {
			w := func(orders int) Workload {
				return Workload{Orders: orders, Items: orders / 5, ApprovalPercent: 60, Seed: 1}
			}
			objects100, bytes100 := instanceAllocs(t, stack, w(100), false)
			objects1000, bytes1000 := instanceAllocs(t, stack, w(1000), false)
			t.Logf("objects %.0f → %.0f (×%.1f), bytes %d → %d (×%.1f)", objects100, objects1000, objects1000/objects100,
				bytes100, bytes1000, float64(bytes1000)/float64(bytes100))
			if objects1000 > 10.5*objects100 {
				t.Errorf("1 000 orders allocate %.0f objects, %.1f× the %.0f of 100 orders (limit 10.5×)", objects1000, objects1000/objects100, objects100)
			}
			if float64(bytes1000) > 12*float64(bytes100) {
				t.Errorf("1 000 orders allocate %d bytes, %.1f× the %d of 100 orders (limit 12×)", bytes1000, float64(bytes1000)/float64(bytes100), bytes100)
			}
		})
	}
}

// TestWriteHeavyCursorStaysLinear: a cursor over the figures' SQL1 result
// whose body writes its own set variable at every step — a Tuple IUD: the
// bound row's quantity updated in the set, a tuple inserted and the last
// one deleted — stays within TestCursorLoopScalesLinearly's bounds on its
// workloads. Each write makes the bound row copy itself before the set
// changes, O(row), never the set.
func TestWriteHeavyCursorStaysLinear(t *testing.T) {
	allocs := func(orders int) (float64, uint64) {
		env := NewEnvironment(Workload{Orders: orders, Items: orders / 5, ApprovalPercent: 60, Seed: 1})
		want := env.DB.MustExec(aggregationSQL).Rows
		iud := engine.NewSnippet("iud", func(ctx *engine.Ctx) error {
			pos, err := ctx.Inst.MustVariable("pos").Int()
			if err != nil {
				return err
			}
			row := rowset.Row(ctx.Inst.MustVariable("rs").Node(), int(pos)-1)
			q, err := strconv.Atoi(rowset.Field(row, "Quantity"))
			if err != nil {
				return err
			}
			rowset.SetField(row, "Quantity", strconv.Itoa(q+1))
			if err := bis.InsertTuple(ctx, "rs", []string{"ItemID", "Quantity"}, []string{"none", "0"}); err != nil {
				return err
			}
			return bis.DeleteTuple(ctx, "rs", len(want))
		})
		p := orasoa.NewProcess("iud", env.Funcs).
			XMLVariable("rs", "").XMLVariable("Cur", "").Variable("pos", "1").
			Body(engine.NewSequence("m",
				engine.NewAssign("q").Copy(`ora:query-database("`+aggregationSQL+`")`, "rs"),
				orasoa.CursorLoop("c", "rs", "Cur", "pos", iud))).
			Build()
		d, err := env.Engine.Deploy(p)
		if err != nil {
			t.Fatal(err)
		}
		return measureAllocs(func() {
			in, err := d.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			rs := in.MustVariable("rs").Node()
			if n := rowset.Count(rs); n != len(want) {
				t.Fatalf("%d rows after the loop, want %d", n, len(want))
			}
			for _, i := range []int{0, len(want) - 1} {
				if got, was := rowset.Field(rowset.Row(rs, i), "Quantity"), want[i][1].I; got != strconv.FormatInt(was+1, 10) {
					t.Fatalf("row %d: quantity %s, want %d + 1", i+1, got, was)
				}
			}
		})
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	objects100, bytes100 := allocs(100)
	objects1000, bytes1000 := allocs(1000)
	t.Logf("objects %.0f → %.0f (×%.1f), bytes %d → %d (×%.1f)", objects100, objects1000, objects1000/objects100,
		bytes100, bytes1000, float64(bytes1000)/float64(bytes100))
	if objects1000 > 10.5*objects100 {
		t.Errorf("1 000 orders allocate %.0f objects, %.1f× the %.0f of 100 orders (limit 10.5×)", objects1000, objects1000/objects100, objects100)
	}
	if float64(bytes1000) > 12*float64(bytes100) {
		t.Errorf("1 000 orders allocate %d bytes, %.1f× the %d of 100 orders (limit 12×)", bytes1000, float64(bytes1000)/float64(bytes100), bytes100)
	}
}

// TestBISInstanceParsesNothing: once a Figure 4 deployment has run an
// instance, no later instance lexes or parses SQL — the result table's
// statements are built from its name, the activity's SELECT is parsed
// once per text — nothing instance-unique (SR_ItemList_i<N>) enters the
// shared plan cache, and no plan is compiled but the generated table's
// (its SELECT * reads a table that did not exist before the instance).
// Figure 6 on WF parses nothing either: its SQL activities run their
// statements' own text, @name placeholders and all, so after the first
// instance every statement is a plan-cache hit.
func TestBISInstanceParsesNothing(t *testing.T) {
	t.Run("WF", func(t *testing.T) {
		env := NewEnvironment(figureScale)
		p, err := StackWF.Prepare(env, ResilienceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var stats []sqldb.StmtStats
		env.DB.SetStatsSink(func(st sqldb.StmtStats) { stats = append(stats, st) })
		for instance := 2; instance <= 4; instance++ {
			stats = stats[:0]
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(stats) < 2 {
				t.Fatalf("instance %d ran %d statements, want the SELECT and its INSERTs", instance, len(stats))
			}
			for _, st := range stats {
				if st.Parse != 0 || st.Cache != sqldb.CacheHit {
					t.Errorf("instance %d: %s on %q parsed for %v (cache %q)", instance, st.Kind, st.Table, st.Parse, st.Cache)
				}
			}
		}
	})

	env := NewEnvironment(figureScale)
	p, err := StackBIS.Prepare(env, ResilienceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var stats []sqldb.StmtStats
	env.DB.SetStatsSink(func(st sqldb.StmtStats) { stats = append(stats, st) })
	cache := env.DB.StmtCacheStats()
	for instance := 2; instance <= 4; instance++ {
		stats = stats[:0]
		compiles := env.DB.StmtCacheStats().Compiles
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := env.DB.StmtCacheStats().Compiles - compiles; n > 1 {
			t.Errorf("instance %d compiled %d plans, want only the result table's SELECT *", instance, n)
		}
		if len(stats) != 12 {
			t.Fatalf("instance %d ran %d statements, want 12", instance, len(stats))
		}
		uncached := 0
		for _, st := range stats {
			if st.Parse != 0 || st.Cache == sqldb.CacheMiss {
				t.Errorf("instance %d: %s on %q parsed for %v (cache %q)", instance, st.Kind, st.Table, st.Parse, st.Cache)
			}
			if st.Cache == "" {
				uncached++
			}
		}
		if uncached != 4 { // drop-before-create, CREATE … AS, SELECT *, cleanup drop
			t.Errorf("instance %d: %d statements bypassed the plan cache, want the result table's 4", instance, uncached)
		}
	}
	if after := env.DB.StmtCacheStats(); after.Size != cache.Size || after.Misses != cache.Misses || after.Evictions != cache.Evictions {
		t.Errorf("plan cache moved across instances: %+v → %+v", cache, after)
	}
	for _, name := range env.DB.TableNames() {
		if strings.HasPrefix(name, "SR_") {
			t.Errorf("result table %s left behind", name)
		}
	}
}

// TestFigureInstancesCompileNothing: WF and Oracle open fresh sessions per
// instance, yet after the first instance every statement runs on the plan
// its text's cache entry keeps — none is compiled again.
func TestFigureInstancesCompileNothing(t *testing.T) {
	for _, stack := range []Stack{StackWF, StackOracle} {
		t.Run(stack.Name, func(t *testing.T) {
			env := NewEnvironment(figureScale)
			p, err := stack.Prepare(env, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for instance := 1; instance <= 4; instance++ {
				compiles := env.DB.StmtCacheStats().Compiles
				if err := p.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if n := env.DB.StmtCacheStats().Compiles - compiles; instance > 1 && n != 0 {
					t.Errorf("instance %d compiled %d plans, want 0", instance, n)
				}
			}
		})
	}
}
