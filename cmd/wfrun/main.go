// Command wfrun loads a XOML-style workflow markup file (the markup-only
// authoring mode of the Workflow Foundation reproduction) and executes it
// against an embedded database.
//
// The database is registered under the data source name given by -ds
// (default "db", reachable from markup connection strings as
// "Provider=SqlServer;Data Source=db") and optionally seeded from a SQL
// script via -seed. Initial host variables are set with repeated
// -var name=value flags. A single-instance run prints one line per
// finished activity (instance, activity, outcome and the activity span's
// attributes: attempt, backoff, deadletter_key, ...) and, after the run,
// the final host variables.
//
// With -journal DIR the run is durable: every effectful activity is
// written ahead to DIR's write-ahead log, and a run killed mid-flight
// can be resumed with -recover, which replays completed activities from
// their journaled results and continues live at the first un-journaled
// one. -recover with no in-flight instances starts a fresh (journaled)
// run.
//
// With -trace FILE every finished span (instance → activity → SQL
// statement) is appended to FILE as one JSON line; -metrics FILE writes
// the run's counter/histogram snapshot as indented JSON after the run
// ("-" sends either to stdout).
//
// With -instances N (and -parallel W workers) the workflow runs as N
// concurrent instances on the worker-pool instance scheduler — the
// multi-tenant execution shape of the WF runtime host — and the run
// reports aggregate throughput instead of per-instance host variables.
//
// Usage:
//
//	wfrun -xoml flow.xoml [-seed seed.sql] [-ds db] [-var Index=0] ...
//	      [-journal dir] [-recover] [-trace file] [-metrics file]
//	      [-instances 1] [-parallel 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wfsql/internal/journal"
	"wfsql/internal/mswf"
	"wfsql/internal/obsv"
	"wfsql/internal/sched"
	"wfsql/internal/sqldb"
)

type varFlags map[string]any

func (v varFlags) String() string { return fmt.Sprint(map[string]any(v)) }

func (v varFlags) Set(s string) error {
	k, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if i, err := strconv.ParseInt(val, 10, 64); err == nil {
		v[k] = i
	} else {
		v[k] = val
	}
	return nil
}

func main() {
	xomlPath := flag.String("xoml", "", "workflow markup file (required)")
	seedPath := flag.String("seed", "", "SQL script to seed the database")
	dsName := flag.String("ds", "db", "data source name for connection strings")
	journalDir := flag.String("journal", "", "directory for the durable instance journal")
	doRecover := flag.Bool("recover", false, "resume in-flight instances from the journal (requires -journal)")
	tracePath := flag.String("trace", "", "write the span trace as JSON lines to this file (- for stdout)")
	metricsPath := flag.String("metrics", "", "write the metrics snapshot as JSON to this file (- for stdout)")
	instances := flag.Int("instances", 1, "number of workflow instances to run")
	parallel := flag.Int("parallel", 1, "scheduler workers for multi-instance runs")
	vars := varFlags{}
	flag.Var(vars, "var", "initial host variable name=value (repeatable)")
	flag.Parse()

	if *instances > 1 && *doRecover {
		fmt.Fprintln(os.Stderr, "wfrun: -instances and -recover are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}

	if *doRecover && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "wfrun: -recover requires -journal")
		flag.Usage()
		os.Exit(2)
	}

	if *xomlPath == "" {
		fmt.Fprintln(os.Stderr, "wfrun: -xoml is required")
		flag.Usage()
		os.Exit(2)
	}
	markup, err := os.ReadFile(*xomlPath)
	if err != nil {
		fatal(err)
	}
	wf, err := mswf.LoadXOML(string(markup))
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

	rt := mswf.NewRuntime()
	rt.RegisterDatabase(*dsName, mswf.SQLServer, db)

	obs, flush, err := obsv.OpenRunner(*tracePath, *metricsPath, *instances <= 1)
	if err != nil {
		fatal(err)
	}
	if obs != nil {
		rt.SetObservability(obs)
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
		rt.AttachJournal(rec)
	}

	if *instances > 1 {
		// Multi-instance mode: one immutable activity tree, N instances on
		// the worker pool, each with its own Context (and so its own
		// per-instance sqldb sessions and journal entries).
		s := sched.New(*parallel)
		s.SetObservability(obs)
		jobs := make([]sched.Job, *instances)
		for i := range jobs {
			jobs[i] = sched.Job{Stack: "WF", Name: fmt.Sprintf("%s#%d", *xomlPath, i), Run: func() error {
				initial := map[string]any{}
				for k, v := range vars {
					initial[k] = v
				}
				_, err := rt.Run(wf, initial)
				return err
			}}
		}
		rep := s.Run(jobs)
		fmt.Printf("%d instances on %d workers in %s: %.1f instances/sec (%d failed)\n",
			rep.Jobs, rep.Workers, rep.Elapsed.Round(0), rep.Throughput, rep.Failed)
		flushObs()
		if err := rep.FirstError(); err != nil {
			fatal(err)
		}
		return
	}

	var ctx *mswf.Context
	if *doRecover {
		inflight := rec.InFlight()
		if len(inflight) == 0 {
			fmt.Fprintln(os.Stderr, "wfrun: no in-flight instances to recover; starting fresh")
			ctx, err = rt.Run(wf, vars)
		} else {
			for _, ij := range inflight {
				fmt.Printf("recovering instance %d (%d memoized effects)\n", ij.ID, ij.MemoCount())
				ctx, err = rt.Resume(wf, ij)
				if err != nil {
					break
				}
			}
		}
	} else {
		ctx, err = rt.Run(wf, vars)
	}
	if ctx == nil {
		fatal(err)
	}
	fmt.Println("host variables:")
	for _, name := range ctx.VarNames() {
		v, _ := ctx.Get(name)
		fmt.Printf("  %s = %v\n", name, v)
	}
	flushObs()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfrun: %v\n", err)
	os.Exit(1)
}
