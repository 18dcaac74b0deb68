// Command bench is the repository's benchmark: six single-client
// closed-loop workloads, every time metric divided by an adjacent run of
// a reference kernel so that host drift cancels. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var cfg config
	name := flag.String("workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase on the reference machine")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, observability detached; 1: per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink slices and passes ~50× (tests)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the traced pass's spans to this file as JSONL")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/wal", "directory for the mix-durable WAL files")
	list := flag.Bool("list", false, "list the workloads and exit")
	registry := flag.Bool("registry", false, "print BENCHMARK.json as the registry in this package defines it and exit")
	aa := flag.Int("aa", 0, "A/A check: run two interleaved sets of `N` invocations per workload (all, or -workload) and compare")
	burner := flag.Bool("burner", false, "self-test: bis-fig4 and sql-read, quiet and beside one busy-loop process per CPU")
	burn := flag.Bool("burn", false, "spin on one core until killed (the -burner child)")
	flag.Parse()
	cfg.trace = *trace != 0

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-12s %s\n", w.name, w.why)
		}
		return
	}
	if *registry {
		printRegistry(cfg.seconds)
		return
	}
	if *burn {
		for {
		}
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *burner {
		fatalIf(runBurner(cfg))
		return
	}
	w := findWorkload(*name)
	if *aa > 0 {
		var names []string
		for _, x := range workloads {
			if w == nil || x.name == w.name {
				names = append(names, x.name)
			}
		}
		ok, err := runAA(*aa, names, cfg)
		fatalIf(err)
		if !ok {
			os.Exit(1)
		}
		return
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	// One client, one P. With a second P the collector's background workers
	// run on the other vCPU, and whether the hypervisor schedules that vCPU
	// at that moment moves the result by several percent between runs of
	// the same binary (same-seed spread of bis-fig4 cal_ops_per_s 2.1 %
	// against 1.3 % on one P; setup_s 4.5 % against 0.5 %). On one P the
	// collector's work is on the client's core and in the measurement,
	// whatever the machine's core count.
	runtime.GOMAXPROCS(1)
	run := runEndToEnd
	if cfg.trace {
		run = runPerLayer
	}
	res, err := run(w, cfg)
	fatalIf(err)
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	report(w, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report prints every metric by name with its unit, then — as the last
// line — the machine-readable result.
func report(w *workload, res result) {
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", w.name, res.attempted, res.failed)
	for _, k := range names {
		unit := findMetric(k).unit // every reported metric is registered (a test checks)
		fmt.Printf("  %-32s %14.4f %s\n", k, res.metrics[k], unit)
		out.Metrics[k] = value{res.metrics[k], unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// printRegistry renders workloads.go and metrics.go as BENCHMARK.json, so
// that the file is generated from the one registry and not edited by hand.
func printRegistry(seconds int) {
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	out := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, jsonWorkload{w.name, w.why})
	}
	for i := range endToEnd {
		m := &endToEnd[i]
		out.EndToEnd = append(out.EndToEnd, jsonMetric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, jsonMetric{m.name, m.unit, m.better, nil})
	}
	text, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(text))
}
