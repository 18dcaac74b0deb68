package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// invoke runs this binary again as a child with the given flags and
// returns the metrics of the result line it prints last.
func invoke(args ...string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%v: result line: %w", args, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%v: run reported correct=false", args)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

func runArgs(workload string, seed int64, cfg config, trace int) []string {
	return []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(trace), "-scratch", cfg.scratch}
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (exclusive method) — the driver's measure
// of how steady a metric is.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / median(s)
}

// runAA runs two interleaved sets of n invocations of this same binary on
// each workload — each invocation on another seed — and prints, per
// workload × end-to-end metric, the two medians, their gap, each set's
// quartile spread and the bound. It reports whether every gap and spread
// stayed inside its bound.
func runAA(n int, names []string, cfg config) (bool, error) {
	ok := true
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for _, set := range [2]int{i % 2, 1 - i%2} { // alternate which set goes first
				m, err := invoke(runArgs(name, cfg.seed+int64(set*n+i), cfg, 0)...)
				if err != nil {
					return false, err
				}
				for k, v := range m {
					sets[set][k] = append(sets[set][k], v)
				}
			}
		}
		fmt.Printf("%-12s %-20s %14s %14s %8s %8s %8s %8s\n", name, "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
		for _, mt := range endToEnd {
			a, b := sets[0][mt.name], sets[1][mt.name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = -gap
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			if gap > mt.bound || (mt.name != "setup_s" && (sa > mt.bound || sb > mt.bound)) {
				verdict = "  OVER"
				ok = false
			}
			fmt.Printf("%-12s %-20s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %7.2f%%%s\n",
				"", mt.name, ma, mb, gap*100, sa*100, sb*100, mt.bound*100, verdict)
		}
	}
	return ok, nil
}

// runBurner is the manual self-test of the drift compensation: bis-fig4
// and sql-read, first on a quiet machine and then beside one background
// busy-loop process per CPU — the benchmark runs on one P, so it takes a
// burner on every core to take CPU time away from it — raw against
// calibrated throughput.
func runBurner(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	measure := func(name string) (raw, cal, cv float64, err error) {
		e2e, err := invoke(runArgs(name, cfg.seed, cfg, 0)...)
		if err != nil {
			return 0, 0, 0, err
		}
		layer, err := invoke(runArgs(name, cfg.seed, cfg, 1)...)
		if err != nil {
			return 0, 0, 0, err
		}
		return layer["host.raw_ops_per_s"], e2e["cal_ops_per_s"], layer["host.calib_cv"], nil
	}
	fmt.Printf("%-10s %12s %12s %8s %12s %12s %8s %9s %9s\n", "workload",
		"raw quiet", "raw burned", "moved", "cal quiet", "cal burned", "moved", "cv quiet", "cv burned")
	for _, name := range []string{"bis-fig4", "sql-read"} {
		raw0, cal0, cv0, err := measure(name)
		if err != nil {
			return err
		}
		raw1, cal1, cv1, err := burned(exe, func() (float64, float64, float64, error) { return measure(name) })
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %12.1f %12.1f %7.1f%% %12.1f %12.1f %7.1f%% %9.3f %9.3f\n", name,
			raw0, raw1, (raw1/raw0-1)*100, cal0, cal1, (cal1/cal0-1)*100, cv0, cv1)
	}
	return nil
}

// burned runs measure beside one busy-loop child per CPU and stops and
// reaps every child before it returns.
func burned(exe string, measure func() (float64, float64, float64, error)) (raw, cal, cv float64, err error) {
	var burners []*exec.Cmd
	defer func() {
		for _, b := range burners {
			b.Process.Kill()
			b.Wait()
		}
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		b := exec.Command(exe, "-burn")
		if err := b.Start(); err != nil {
			return 0, 0, 0, err
		}
		burners = append(burners, b)
	}
	return measure()
}
