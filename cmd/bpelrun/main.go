// Command bpelrun loads a BPEL process document with WID artifacts (the
// design-tool output serialized by internal/bpelxml) and executes it on
// the workflow engine against an embedded database — the deploy-and-run
// half of the paper's Figure 3 pipeline.
//
// Usage:
//
//	bpelrun -bpel process.bpel [-seed seed.sql] [-ds orderdb] [-var k=v]...
//	        [-journal dir] [-recover] [-trace file] [-metrics file]
//	        [-instances 1] [-parallel 1]
//
// With -instances N (and -parallel W workers) the deployed process runs
// as N concurrent instances on the worker-pool instance scheduler — the
// multi-tenant execution shape of a BPEL server — and the run reports
// aggregate throughput (per-activity line printing is suppressed).
//
// A single-instance run prints one line per finished activity —
// instance, activity, outcome and the activity span's attributes
// (retry=suppressed, attempt, backoff, breaker, deadletter_key, ...).
//
// With -trace FILE every finished span (instance → activity → SQL
// statement / bus call) is appended to FILE as one JSON line; -metrics
// FILE writes the run's counter/histogram snapshot as indented JSON
// after the run ("-" sends either to stdout).
//
// With -journal DIR every effectful activity is written ahead to DIR's
// write-ahead log; -recover resumes in-flight instances of the loaded
// process from the journal, replaying completed activities from their
// memoized results.
//
// Data sources referenced by wid:dataSourceVariable artifacts must be
// registered; -ds names the embedded database (default "orderdb").
// Snippets cannot be loaded from a document (they are code); processes
// run by this tool must be fully declarative.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wfsql/internal/bpelxml"
	"wfsql/internal/engine"
	"wfsql/internal/journal"
	"wfsql/internal/obsv"
	"wfsql/internal/sched"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

type varFlags map[string]string

func (v varFlags) String() string { return fmt.Sprint(map[string]string(v)) }

func (v varFlags) Set(s string) error {
	k, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v[k] = val
	return nil
}

func main() {
	bpelPath := flag.String("bpel", "", "BPEL process document (required)")
	seedPath := flag.String("seed", "", "SQL script to seed the database")
	dsName := flag.String("ds", "orderdb", "data source name to register")
	journalDir := flag.String("journal", "", "directory for the durable instance journal")
	doRecover := flag.Bool("recover", false, "resume in-flight instances from the journal (requires -journal)")
	tracePath := flag.String("trace", "", "write the span trace as JSON lines to this file (- for stdout)")
	metricsPath := flag.String("metrics", "", "write the metrics snapshot as JSON to this file (- for stdout)")
	instances := flag.Int("instances", 1, "number of process instances to run")
	parallel := flag.Int("parallel", 1, "scheduler workers for multi-instance runs")
	vars := varFlags{}
	flag.Var(vars, "var", "initial process variable name=value (repeatable)")
	flag.Parse()

	if *doRecover && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "bpelrun: -recover requires -journal")
		flag.Usage()
		os.Exit(2)
	}
	if *instances > 1 && *doRecover {
		fmt.Fprintln(os.Stderr, "bpelrun: -instances and -recover are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}
	if *bpelPath == "" {
		fmt.Fprintln(os.Stderr, "bpelrun: -bpel is required")
		flag.Usage()
		os.Exit(2)
	}
	doc, err := os.ReadFile(*bpelPath)
	if err != nil {
		fatal(err)
	}
	builder, err := bpelxml.UnmarshalBISProcess(string(doc), nil)
	if err != nil {
		fatal(err)
	}

	db := sqldb.Open(*dsName)
	if *seedPath != "" {
		script, err := os.ReadFile(*seedPath)
		if err != nil {
			fatal(err)
		}
		if _, err := db.ExecScript(string(script)); err != nil {
			fatal(fmt.Errorf("seed: %w", err))
		}
	}

	bus := wsbus.New()
	supplier := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", supplier.Handle)
	wsbus.RegisterSQLAdapter(bus, "SQLAdapter", db)

	e := engine.New(bus)
	e.RegisterDataSource(*dsName, db)

	// Per-activity lines are single-instance chrome; a multi-instance run
	// would interleave them beyond usefulness.
	obs, flush, err := obsv.OpenRunner(*tracePath, *metricsPath, *instances <= 1)
	if err != nil {
		fatal(err)
	}
	if obs != nil {
		e.SetObservability(obs)
		bus.SetObservability(obs)
		db.SetObservability(obs)
	}
	// flushObs closes the trace and dumps the metrics snapshot; called on
	// every successful exit path.
	flushObs := func() {
		if err := flush(); err != nil {
			fatal(err)
		}
	}

	var rec *journal.Recorder
	if *journalDir != "" {
		rec, err = journal.Open(*journalDir)
		if err != nil {
			fatal(fmt.Errorf("journal: %w", err))
		}
		defer rec.Close()
		e.AttachJournal(rec)
	}

	d, err := e.Deploy(builder.Build())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("deployed: %s\n", d.Describe())
	if *doRecover {
		inflight := rec.InFlight()
		if len(inflight) == 0 {
			fmt.Fprintln(os.Stderr, "bpelrun: no in-flight instances to recover; starting fresh")
		}
		for _, ij := range inflight {
			fmt.Printf("recovering instance %d (%d memoized effects)\n", ij.ID, ij.MemoCount())
			in, err := d.Resume(ij)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("instance %d: %s\n", in.ID, in.State())
		}
		if len(inflight) > 0 {
			report(db)
			flushObs()
			return
		}
	}
	if *instances > 1 {
		// Multi-instance mode: one deployment, N instances on the worker
		// pool, each with its own engine instance state and journal entry.
		s := sched.New(*parallel)
		s.SetObservability(obs)
		jobs := make([]sched.Job, *instances)
		for i := range jobs {
			jobs[i] = sched.Job{Stack: "BIS", Name: fmt.Sprintf("%s#%d", d.Describe(), i), Run: func() error {
				_, err := d.Run(vars)
				return err
			}}
		}
		rep := s.Run(jobs)
		fmt.Printf("%d instances on %d workers in %s: %.1f instances/sec (%d failed)\n",
			rep.Jobs, rep.Workers, rep.Elapsed.Round(0), rep.Throughput, rep.Failed)
		report(db)
		flushObs()
		if err := rep.FirstError(); err != nil {
			fatal(err)
		}
		return
	}
	in, err := d.Run(vars)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance %d: %s\n", in.ID, in.State())
	report(db)
	flushObs()
}

// report prints per-table row counts after the run.
func report(db *sqldb.DB) {
	for _, t := range db.TableNames() {
		res := db.MustExec("SELECT COUNT(*) FROM " + t)
		fmt.Printf("table %s: %s row(s)\n", t, res.Rows[0][0])
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bpelrun: %v\n", err)
	os.Exit(1)
}
