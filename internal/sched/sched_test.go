package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wfsql/internal/obsv"
)

// TestRunAllJobsComplete checks every job runs exactly once and the
// report aggregates counts and throughput.
func TestRunAllJobsComplete(t *testing.T) {
	const n = 40
	var ran atomic.Int64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Stack: "BIS", Name: fmt.Sprintf("j%d", i), Run: func() error {
			ran.Add(1)
			return nil
		}}
	}
	rep := New(4).Run(jobs)
	for i, r := range rep.Results {
		if r.Name != jobs[i].Name {
			t.Fatalf("Results[%d] = %s: not in submission order", i, r.Name)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d jobs, want %d", got, n)
	}
	if rep.Jobs != n || rep.Failed != 0 || rep.Workers != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v, want > 0", rep.Throughput)
	}
	if err := rep.FirstError(); err != nil {
		t.Fatalf("FirstError = %v", err)
	}
}

// TestRunBoundsConcurrency verifies no more than `workers` jobs are in
// flight at once, and that at least two workers actually run jobs.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Name: "j", Run: func() error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		}}
	}
	rep := New(workers).Run(jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds %d workers", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak in-flight %d: jobs never overlapped, want >= 2 workers running", p)
	}
	if len(rep.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(jobs))
	}
}

// TestRunIsolatesFailuresAndPanics checks that erroring and panicking
// jobs are recorded as failures without preventing sibling jobs from
// completing — the instance-isolation contract.
func TestRunIsolatesFailuresAndPanics(t *testing.T) {
	boom := errors.New("boom")
	var okRan atomic.Int64
	jobs := []Job{
		{Name: "ok1", Run: func() error { okRan.Add(1); return nil }},
		{Name: "err", Run: func() error { return boom }},
		{Name: "panic", Run: func() error { panic("kaboom") }},
		{Name: "ok2", Run: func() error { okRan.Add(1); return nil }},
	}
	rep := New(2).Run(jobs)
	if okRan.Load() != 2 {
		t.Fatalf("healthy jobs ran %d times, want 2", okRan.Load())
	}
	if rep.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", rep.Failed)
	}
	if err := rep.FirstError(); err == nil {
		t.Fatal("FirstError = nil, want error")
	}
	for _, r := range rep.Results {
		switch r.Name {
		case "err":
			if !errors.Is(r.Err, boom) {
				t.Fatalf("err job error = %v", r.Err)
			}
		case "panic":
			if r.Err == nil {
				t.Fatal("panic job recorded no error")
			}
		}
	}
}

// TestRunEmitsMetrics checks the obsv wiring: per-job counters and
// latency histograms.
func TestRunEmitsMetrics(t *testing.T) {
	o := obsv.New()
	s := New(2)
	s.SetObservability(o)
	jobs := []Job{
		{Stack: "WF", Name: "a", Run: func() error { return nil }},
		{Stack: "WF", Name: "b", Run: func() error { return errors.New("x") }},
	}
	s.Run(jobs)
	m := o.M()
	if got := m.Counter("sched.jobs").Value(); got != 2 {
		t.Fatalf("sched.jobs = %d, want 2", got)
	}
	if got := m.Counter("sched.jobs.WF").Value(); got != 2 {
		t.Fatalf("sched.jobs.WF = %d, want 2", got)
	}
	if got := m.Counter("sched.ok").Value(); got != 1 {
		t.Fatalf("sched.ok = %d, want 1", got)
	}
	if got := m.Counter("sched.failed").Value(); got != 1 {
		t.Fatalf("sched.failed = %d, want 1", got)
	}
	if got := m.Histogram("sched.run_ms").Count(); got != 2 {
		t.Fatalf("sched.run_ms count = %d, want 2", got)
	}
	if got := m.Histogram("sched.queue_wait_ms").Count(); got != 2 {
		t.Fatalf("sched.queue_wait_ms count = %d, want 2", got)
	}
}
