package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
)

// Run protocol constants. They are the same on every commit: a run
// measures a fixed amount of work, not a fixed amount of time, so two
// commits are compared on identical slices.
const (
	// slicesPerSecond converts -seconds into a slice count: a slice plus
	// its kernel call is ≈ 45 ms on the reference sandbox.
	slicesPerSecond = 22
	// warmupSlices run untimed before the timed phase, so that caches are
	// full and the heap has reached its steady size.
	warmupSlices = 6
	// setupOps is where set-up ends: at the 64th completed op, lazy
	// initialisation and cache fill are behind us.
	setupOps = 64
	// syncOps ops are run under the journal's default SyncCritical policy
	// to count the fsyncs it issues (journal.syncs_per_op).
	syncOps = 16
	// quickDivisor shrinks probe loops for tests (-quick).
	quickDivisor = 50
)

// plan is the fixed amount of work one invocation does.
type plan struct {
	setups    int // fresh set-ups timed (end-to-end run)
	setupOps  int // ops that belong to a set-up
	warmup    int // untimed slices before the timed phase
	slices    int // timed slices (end-to-end run)
	pairs     int // untraced+traced slice pairs (per-layer run)
	sliceOps  int
	countOps  int
	syncOps   int
	probeReps int
}

func newPlan(w *workload, cfg config) plan {
	if cfg.quick {
		// Enough to execute every code path once; the numbers mean nothing.
		quickKernel = true
		return plan{setups: 2, setupOps: 8, warmup: 1, slices: 3, pairs: 2, sliceOps: min(8, w.sliceOps), countOps: 16, syncOps: 2, probeReps: 1}
	}
	slices := cfg.seconds * slicesPerSecond
	// A traced slice costs up to twice an untraced one, so a third of the
	// end-to-end slice count each keeps a per-layer run inside -seconds.
	return plan{setups: w.setups, setupOps: setupOps, warmup: warmupSlices, slices: slices, pairs: max(slices/3, 2),
		sliceOps: w.sliceOps, countOps: w.countOps, syncOps: syncOps, probeReps: probeReps}
}

type config struct {
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	traceOut string
	scratch  string // directory the WAL files live under
}

// runner drives one workload instance as a single closed-loop client.
type runner struct {
	w    *workload
	cfg  config
	plan plan
	inst instance
	next int       // number of the next op
	lats []float64 // per-op latencies of the current slice, µs

	attempted, failed int
	errs              []error // the first few failures, for the report
	setups            int
	lastKernelUS      float64 // the most recent call of the reference kernel
}

// kernel runs the reference kernel right after a slice and returns the
// mean of this call and the previous one — the two calls that bracket the
// slice. Pairing a slice with both neighbours halves the kernel's own
// jitter in the ratio (on sql-read the spread between runs fell from
// 2.7 % to 1.4 %).
func (r *runner) kernel() float64 {
	k := calibKernel()
	mean := (r.lastKernelUS + k) / 2
	r.lastKernelUS = k
	return mean
}

func newRunner(w *workload, cfg config) *runner {
	return &runner{w: w, cfg: cfg, plan: newPlan(w, cfg), lats: make([]float64, w.sliceOps)}
}

func (r *runner) note(err error) {
	r.attempted++
	r.check(err)
}

// check records a failed correctness check as a failed op.
func (r *runner) check(err error) {
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// setUp builds a fresh environment, runs it to its 64th completed op and
// returns how long that took in reference-machine seconds. The kernel
// runs on both sides and the set-up is scaled by their mean, like a
// slice.
func (r *runner) setUp() (float64, error) {
	r.setups++
	dir := filepath.Join(r.cfg.scratch, fmt.Sprintf("wal-%d-%d", os.Getpid(), r.setups))
	r.lastKernelUS = calibKernel()
	start := time.Now()
	inst, err := r.w.setup(r.cfg.seed, dir)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	r.inst, r.next = inst, 0
	r.untimedOps(r.plan.setupOps)
	wall := time.Since(start)
	k := r.kernel()
	r.check(inst.endSlice(r.plan.setupOps))
	return wall.Seconds() * CalibRefUS / k, nil
}

// untimedOps issues n ops outside every timer.
func (r *runner) untimedOps(n int) {
	for j := 0; j < n; j++ {
		r.note(r.inst.op(r.next, nil))
		r.next++
	}
}

// runOps issues n ops back to back and returns their wall time in µs;
// r.lats[:n] holds the per-op latencies (completion to completion).
func (r *runner) runOps(n int) float64 {
	start := time.Now()
	prev := start
	for j := 0; j < n; j++ {
		err := r.inst.op(r.next, nil)
		now := time.Now()
		r.lats[j] = us(now.Sub(prev))
		prev = now
		r.next++
		r.note(err)
	}
	return us(prev.Sub(start))
}

// slice runs one timed slice: the ops, then one call of the reference
// kernel (the previous slice's call ran just before these ops), then —
// outside both timers — the slice's correctness check and housekeeping.
func (r *runner) slice() sliceStat {
	n := r.plan.sliceOps
	wall := r.runOps(n)
	k := r.kernel()
	st := summarizeSlice(n, wall, k, r.lats[:n])
	r.check(r.inst.endSlice(n))
	return st
}

// counts is what the count pass measures: exact, time-free numbers.
type counts struct {
	allocs, allocBytes float64 // per op
	gcCyclesPerKop     float64
	gcPauseUSPerOp     float64
}

// countPass runs a fixed number of ops with no kernel calls and no
// housekeeping between two runtime.ReadMemStats calls.
func (r *runner) countPass() counts {
	n := r.plan.countOps
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r.untimedOps(n)
	runtime.ReadMemStats(&m1)
	r.check(r.inst.endSlice(n))
	f := float64(n)
	return counts{
		allocs:         float64(m1.Mallocs-m0.Mallocs) / f,
		allocBytes:     float64(m1.TotalAlloc-m0.TotalAlloc) / f,
		gcCyclesPerKop: float64(m1.NumGC-m0.NumGC) / f * 1000,
		gcPauseUSPerOp: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3 / f,
	}
}

// syncsPerOp counts the fsyncs per op the journal's default SyncCritical
// policy issues. The timed path runs under SyncNever (see README.md), so
// a few ops are run under the default policy just to count.
func (r *runner) syncsPerOp() float64 {
	rec := r.inst.recorder()
	if rec == nil {
		return 0
	}
	was := rec.SyncPolicy()
	rec.SetSyncPolicy(journal.SyncPolicy{Mode: journal.SyncCritical})
	before := rec.SyncCount()
	n := r.plan.syncOps
	r.untimedOps(n)
	syncs := float64(rec.SyncCount()-before) / float64(n)
	rec.SetSyncPolicy(was)
	r.check(r.inst.endSlice(n))
	return syncs
}

// liveHeapMB is the heap still reachable after a full collection: plan
// cache, MVCC versions, WAL state — whatever the run has accumulated.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// hostRows are the raw, never-gated facts about the machine during the
// untraced slices.
func hostRows(slices []sliceStat, c counts) map[string]float64 {
	kernel := make([]float64, len(slices))
	for i, s := range slices {
		kernel[i] = s.kernelUS
	}
	cv := coefVar(kernel)
	noisy := 0.0
	if cv > noisyCalibCV {
		noisy = 1
	}
	return map[string]float64{
		"host.calib_us":           median(kernel),
		"host.calib_cv":           cv,
		"host.noisy":              noisy,
		"host.raw_ops_per_s":      medianOf(slices, func(s sliceStat) float64 { return s.rawOpsS }),
		"host.raw_lat_p50_us":     medianOf(slices, func(s sliceStat) float64 { return s.rawP50 }),
		"host.raw_lat_p99_us":     medianOf(slices, func(s sliceStat) float64 { return s.rawP99 }),
		"host.gc_cycles_per_kop":  c.gcCyclesPerKop,
		"host.gc_pause_us_per_op": c.gcPauseUSPerOp,
	}
}

// noisyCalibCV is the kernel's coefficient of variation above which a run
// is flagged host.noisy=1. In the -burner self-test quiet runs read
// 0.05–0.13 and runs beside a busy loop on every core 0.32.
const noisyCalibCV = 0.25

// result is what one invocation reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	errs              []error
}

// runEndToEnd measures the seven end-to-end metrics with observability
// detached.
func runEndToEnd(w *workload, cfg config) (result, error) {
	r := newRunner(w, cfg)
	var setupS []float64
	for i := 0; i < r.plan.setups; i++ {
		if r.inst != nil {
			r.check(r.inst.finish())
		}
		s, err := r.setUp()
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, s)
	}
	for i := 0; i < r.plan.warmup; i++ {
		r.slice()
	}
	slices := make([]sliceStat, r.plan.slices)
	for i := range slices {
		slices[i] = r.slice()
	}
	heap := liveHeapMB()
	c := r.countPass()
	r.check(r.inst.finish())

	m := map[string]float64{
		"cal_ops_per_s":      medianOf(slices, func(s sliceStat) float64 { return s.opsPerS }),
		"cal_lat_p50_us":     medianOf(slices, func(s sliceStat) float64 { return s.p50 }),
		"cal_lat_p90_us":     medianOf(slices, func(s sliceStat) float64 { return s.p90 }),
		"allocs_per_op":      c.allocs,
		"alloc_bytes_per_op": c.allocBytes,
		"live_heap_mb":       heap,
		"setup_s":            median(setupS),
	}
	return result{metrics: m, attempted: r.attempted, failed: r.failed, errs: r.errs}, nil
}

// tracedTotals accumulates the traced slices of a run.
type tracedTotals struct {
	ops      int
	budget   budget       // reference-machine µs
	walBytes int64        // WAL growth over the traced ops
	spans    []*obsv.Span // kept only for -trace-out
}

// tracedSlice runs one slice with tracing and metrics attached and adds
// its budget to acc. Bookkeeping between ops is outside the per-op
// timers; the slice's cost is the sum of its op times.
func (r *runner) tracedSlice(o *obsv.Observability, col *obsv.Collector, acc *tracedTotals) sliceStat {
	n := r.plan.sliceOps
	rec := r.inst.recorder()
	appends := o.Metrics.Counter("journal.appends")
	// Checkpoints (and with them WAL rotation) happen only in endSlice, so
	// within the ops the recorder's time is its appends' and the WAL only
	// grows.
	journalMS := func() float64 { return o.Metrics.Histogram("journal.append_ms").Summary().Sum }
	walSize := func() int64 {
		if rec == nil {
			return 0
		}
		fi, err := os.Stat(rec.Path())
		r.check(err)
		if err != nil {
			return 0
		}
		return fi.Size()
	}

	r.inst.observe(o)
	j0, size0 := journalMS(), walSize()
	var bounds [][2]stamp
	var from stamp
	now := func() stamp { return stamp{time.Now(), appends.Value()} }
	mark := func() {
		to := now()
		bounds = append(bounds, [2]stamp{from, to})
		from = to
	}
	var wall float64
	for j := 0; j < n; j++ {
		from = now()
		start := from.t
		err := r.inst.op(r.next, mark)
		mark()
		r.lats[j] = us(from.t.Sub(start))
		wall += r.lats[j]
		r.next++
		r.note(err)
	}
	k := r.kernel()
	journalUS := (journalMS() - j0) * 1e3
	acc.walBytes += walSize() - size0
	r.inst.observe(nil)

	spans := col.Spans()
	col.Reset()
	acc.ops += n
	acc.budget.add(sliceBudget(spans, bounds, journalUS), CalibRefUS/k)
	if r.cfg.traceOut != "" {
		acc.spans = append(acc.spans, spans...)
	}
	st := summarizeSlice(n, wall, k, r.lats[:n])
	r.check(r.inst.endSlice(n))
	return st
}

// runPerLayer measures the per-layer metrics: untraced and traced slices
// interleaved on one environment (their ratio is the tracing overhead),
// the registry's exact counts, and the layer probes.
func runPerLayer(w *workload, cfg config) (result, error) {
	r := newRunner(w, cfg)
	if _, err := r.setUp(); err != nil {
		return result{}, err
	}
	for i := 0; i < r.plan.warmup; i++ {
		r.slice()
	}
	o := obsv.New()
	col := obsv.NewCollector()
	o.Tracer.AddSink(col)
	var acc tracedTotals
	plain := make([]sliceStat, r.plan.pairs)
	traced := make([]sliceStat, r.plan.pairs)
	for i := range plain {
		plain[i] = r.slice()
		traced[i] = r.tracedSlice(o, col, &acc)
	}
	c := r.countPass()
	syncs := r.syncsPerOp()
	r.check(r.inst.finish())

	m := hostRows(plain, c)
	ops := float64(acc.ops)
	b := acc.budget
	m["engine.self_us"] = b.layer[layerEngine] / ops
	m["mswf.self_us"] = b.layer[layerMSWF] / ops
	m["sqldb.span_us"] = b.layer[layerSQLDB] / ops
	m["wsbus.span_us"] = b.layer[layerWSBus] / ops
	m["journal.span_us"] = b.layer[layerJournal] / ops
	m["unattributed_us"] = b.unattributed / ops
	m["traced_op_us"] = b.op / ops
	m["obsv.spans_per_op"] = float64(b.spans) / ops
	calOps := func(s sliceStat) float64 { return s.opsPerS }
	m["obsv.overhead_ratio"] = medianOf(plain, calOps) / medianOf(traced, calOps)

	snap := o.Metrics.Snapshot()
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	m["sqldb.stmts_per_op"] = ctr("sqldb.stmt") / ops
	m["sqldb.rows_scanned_per_op"] = ctr("sqldb.rows_scanned") / ops
	m["sqldb.rows_returned_per_op"] = ctr("sqldb.rows_returned") / ops
	m["sqldb.plan_hit_ratio"] = ratio(ctr("sqldb.stmtcache.hits"), ctr("sqldb.stmtcache.misses"))
	m["sqldb.index_hit_ratio"] = ratio(ctr("sqldb.index_hits"), ctr("sqldb.index_misses"))
	m["sqldb.parse_us_per_op"] = snap.Histograms["sqldb.parse_ms"].Sum * 1e3 / ops
	m["sqldb.lock_wait_us_per_op"] = snap.Histograms["sqldb.lock_wait_ms"].Sum * 1e3 / ops
	m["engine.activities_per_op"] = (ctr("engine.activities") + ctr("wf.activities")) / ops
	m["wsbus.calls_per_op"] = ctr("bus.calls") / ops
	m["journal.appends_per_op"] = ctr("journal.appends") / ops
	m["journal.syncs_per_op"] = syncs
	m["journal.bytes_per_op"] = float64(acc.walBytes) / ops

	probes, err := runProbes(cfg, r.plan.probeReps)
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		m[k] = v
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, acc.spans); err != nil {
			return result{}, err
		}
	}
	return result{metrics: m, attempted: r.attempted, failed: r.failed, errs: r.errs}, nil
}

// writeSpans writes the traced pass's spans as JSONL, from memory, after
// all timing has ended.
func writeSpans(path string, spans []*obsv.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	jw := obsv.NewJSONLWriter(f)
	for _, s := range spans {
		jw.ExportSpan(s)
	}
	if err := jw.Err(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
